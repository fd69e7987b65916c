(* The two serving workloads, driven against a datalog_serve child.

   serve-point-read: bulk-load a scale-free graph, flip once, then send
   Zipf-keyed point queries two at a time in a closed loop; every reply is
   compared with the answer computed from the generated edges.

   serve-ingest: the same program on a smaller graph.  Connection A loads
   64 new edges and queries one of them until it is visible (each step
   forces a flip); connection B sends PINGs open-loop, pipelined, timed
   from when each was due.  Then the server is restarted on its data dir
   a few times, timing until the first QUERY answers, and the recovered
   store is checked against what was acknowledged. *)

let program_text =
  String.concat "\n"
    [
      ".decl edge(x:number, y:number)";
      ".input edge";
      ".decl two(x:number, z:number)";
      ".output two";
      "two(x, z) :- edge(x, y), edge(y, z).";
      "";
    ]

(* Source text of a parsed program, for RULES. *)
let program_source (p : Ast.program) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (d : Ast.decl) ->
      Printf.bprintf b ".decl %s(%s)\n" d.name
        (String.concat ", " (List.init d.arity (Printf.sprintf "c%d:number")));
      if d.is_input then Printf.bprintf b ".input %s\n" d.name;
      if d.is_output then Printf.bprintf b ".output %s\n" d.name)
    p.decls;
  List.iter (fun r -> Buffer.add_string b (Format.asprintf "%a\n" Ast.pp_rule r)) p.rules;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* The graph and the expected answers                                *)
(* ---------------------------------------------------------------- *)

(* The structure seed fixes the graph and every structural choice after it
   (which nodes are queried, which new edges are loaded), and with them the
   amount of work.  The benchmark seed relabels the node ids by a seeded
   permutation, so keys, key order and tree layouts change between seeds
   while the work does not.  With the graph drawn from the seed, flip
   times differed by up to a tenth between seeds. *)
let structure_seed = 42

type graph = {
  nodes : int;
  label : int array;  (** structural node -> node id *)
  edges : (int * int) array;  (** distinct, labelled *)
  succ : int array array;  (** by node id, sorted *)
  pred : int array array;  (** by node id, sorted *)
  present : (int * int, unit) Hashtbl.t;
}

let graph ~seed ~nodes =
  let label = Array.init nodes Fun.id in
  Rng.shuffle (Rng.create seed) label;
  let raw = Graphs.scale_free (Rng.create structure_seed) ~nodes ~out_degree:2 in
  let present = Hashtbl.create (2 * Array.length raw) in
  let edges = ref [] in
  Array.iter
    (fun (a, b) ->
      let e = (label.(a), label.(b)) in
      if not (Hashtbl.mem present e) then begin
        Hashtbl.add present e ();
        edges := e :: !edges
      end)
    raw;
  let edges = Array.of_list (List.rev !edges) in
  let succ = Array.make nodes [] and pred = Array.make nodes [] in
  Array.iter
    (fun (a, b) ->
      succ.(a) <- b :: succ.(a);
      pred.(b) <- a :: pred.(b))
    edges;
  let sorted l = Array.of_list (List.sort_uniq compare l) in
  { nodes; label; edges; succ = Array.map sorted succ; pred = Array.map sorted pred; present }

type query = Edge_from of int | Two_from of int | Two_to of int

let query_line = function
  | Edge_from k -> Printf.sprintf "QUERY edge %d _" k
  | Two_from k -> Printf.sprintf "QUERY two %d _" k
  | Two_to v -> Printf.sprintf "QUERY two _ %d" v

let query_pattern = function
  | Edge_from k -> ("edge", [| Some k; None |])
  | Two_from k -> ("two", [| Some k; None |])
  | Two_to v -> ("two", [| None; Some v |])

let hop adj ks =
  Array.of_list (List.sort_uniq compare (List.concat_map (fun k -> Array.to_list adj.(k)) (Array.to_list ks)))

(* The free column of each expected row, sorted. *)
let expected g = function
  | Edge_from k -> g.succ.(k)
  | Two_from k -> hop g.succ g.succ.(k)
  | Two_to v -> hop g.pred g.pred.(v)

let parse_row row =
  match String.split_on_char '\t' row with
  | [ a; b ] -> (int_of_string a, int_of_string b)
  | _ -> failwith ("bad row " ^ row)

let answer_ok g memo q rows =
  match
    let want =
      match Hashtbl.find_opt memo q with
      | Some w -> w
      | None ->
        let w = expected g q in
        Hashtbl.add memo q w;
        w
    in
    let got =
      List.map
        (fun row ->
          let a, b = parse_row row in
          match q with
          | Edge_from k | Two_from k -> if a = k then b else min_int
          | Two_to v -> if b = v then a else min_int)
        rows
    in
    let got = Array.of_list (List.sort compare got) in
    got = want
  with
  | ok -> ok
  | exception Failure _ -> false

(* ---------------------------------------------------------------- *)
(* Server set-up: start, RULES, LOAD, first flip                      *)
(* ---------------------------------------------------------------- *)

type env = {
  exe : string;  (** datalog_serve *)
  out : string;  (** scratch area inside the checkout *)
  traced : bool;
}

type live = { child : Child.t; client : Dl_client.t; setup_ns : int }

let expect ctx pred = function
  | Ok r when pred r -> r
  | Ok (Dl_client.Err (c, m)) -> failwith (Printf.sprintf "%s: ERR %s %s" ctx c m)
  | Ok _ -> failwith (ctx ^ ": unexpected reply")
  | Error e -> failwith (ctx ^ ": " ^ e)

let is_ok = function Dl_client.Ok_ _ -> true | _ -> false
let is_data = function Dl_client.Data _ -> true | _ -> false

(* Start a fresh server on [tag]'s data dir and bring it to its first
   served generation.  [probe] is a QUERY whose answer ends set-up (it
   waits out the first flip); [check] validates that answer. *)
let start ?storage env ~tag ~rules ~loads ~probe ~check =
  let dir = Filename.concat env.out ("data-" ^ tag) in
  Util.rm_rf dir;
  let sock = Filename.concat env.out (tag ^ ".sock") in
  let msock = if env.traced then Some (Filename.concat env.out (tag ^ ".metrics.sock")) else None in
  let parent = Spans.start "setup" "setup" in
  let t0 = Util.now_ns () in
  let child =
    Child.spawn ~exe:env.exe ~sock ?msock ?storage ~dir ~log:(Filename.concat env.out (tag ^ ".log")) ()
  in
  let client = Spans.with_ ~parent "setup" "server.start" (fun _ -> Child.connect child) in
  ignore (Spans.with_ ~parent "client" "rules" (fun _ ->
      expect "RULES" is_ok (Dl_client.rules client rules)) : Dl_client.reply);
  List.iter
    (fun (rel, lines) ->
      ignore (Spans.with_ ~parent "client" ("load " ^ rel) (fun _ ->
          expect "LOAD" is_ok (Dl_client.load client rel lines)) : Dl_client.reply))
    loads;
  let r = Spans.with_ ~parent "client" "first_flip" (fun _ ->
      expect "first QUERY" is_data (Dl_client.request client probe))
  in
  let setup_ns = Util.now_ns () - t0 in
  Spans.stop parent;
  (match r with
  | Dl_client.Data (_, rows) when check rows -> ()
  | _ -> failwith ("wrong answer to " ^ probe));
  { child; client; setup_ns }

let stop live =
  Child.shutdown live.child live.client;
  Util.rm_rf live.child.Child.dir

(* Set up [n] times and keep the last server; set-up time is the median. *)
let setup_repeated env ~n ~tag ~rules ~loads ~probe ~check =
  let times = Util.Sample.create () in
  let rec go i =
    let l = start env ~tag ~rules ~loads ~probe ~check in
    Util.Sample.add times (Util.secs l.setup_ns);
    if i + 1 < n then begin
      stop l;
      go (i + 1)
    end
    else l
  in
  let l = go 0 in
  (l, Util.median (Util.Sample.to_array times))

(* ---------------------------------------------------------------- *)
(* Open-loop pipelined pinger                                         *)
(* ---------------------------------------------------------------- *)

(* PINGs sent on a fixed grid of due times, never waiting for a reply:
   a PING stuck behind a flip does not delay the next one's send, so the
   backlog is the server's, not the generator's.  Latency counts from
   the due time; lateness (send - due) measures the generator itself. *)
type pinger = {
  conn : Conn.t;
  interval_ns : int;
  mutable next_due : int;
  lat : Util.Sample.t;  (** ms from due to reply *)
  late : Util.Sample.t;  (** ms from due to send *)
  mutable sent : int;
}

let pinger conn ~hz ~start =
  {
    conn;
    interval_ns = 1_000_000_000 / hz;
    next_due = start;
    lat = Util.Sample.create ();
    late = Util.Sample.create ();
    sent = 0;
  }

(* Send every PING due by now (before [until]); returns seconds until the
   next one is due. *)
let pinger_tick ?(parent = Spans.none) p ~until =
  let now = Util.now_ns () in
  while p.next_due <= now && p.next_due < until do
    let due = p.next_due in
    p.sent <- p.sent + 1;
    let span = Spans.start ~parent ~rid:p.sent "pinger" "ping" in
    Conn.send ~due ~span p.conn "PING\n" (fun r t ->
        match r with
        | Ok (Dl_client.Ok_ _) -> Util.Sample.add p.lat (Util.ms (t - due))
        | _ -> ());
    Util.Sample.add p.late (Util.ms (Util.now_ns () - due));
    p.next_due <- p.next_due + p.interval_ns
  done;
  Util.secs (p.next_due - Util.now_ns ())

(* Server-side observations for the traced run: STATS, /metrics, an idle
   pinger, and a copy of the data dir for WAL replay. *)
let observe env live ~rows ~ping_late ~flip_stat =
  let st = Child.stats live.client in
  let prom = Child.scrape live.child in
  let ms stat name =
    let full = "repro_" ^ name in
    match stat with
    | `P50 -> Layers.bucket_quantile (Child.scraped_buckets prom full) 0.5 /. 1e6
    | `Max -> (
      match List.find_opt (fun (n, _, _) -> n = full ^ "_max") prom with
      | Some (_, _, v) -> v /. 1e6
      | None -> failwith ("/metrics lacks " ^ full))
  in
  let conn = Conn.connect live.child.Child.sock in
  let start = Util.now_ns () in
  let p = pinger conn ~hz:200 ~start in
  let until = start + 500_000_000 in
  while Util.now_ns () < until || Conn.in_flight conn > 0 do
    let dt = pinger_tick p ~until in
    Conn.wait [ conn ] (if Util.now_ns () < until then dt else 0.05)
  done;
  Conn.close conn;
  let copy = Filename.concat env.out "data-copy" in
  Util.rm_rf copy;
  Util.mkdir_p copy;
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:"wal-" f && Filename.check_suffix f ".log" then
        Util.copy_file (Filename.concat live.child.Child.dir f) (Filename.concat copy f))
    (Sys.readdir live.child.Child.dir);
  {
    Layers.query_p50_ms = ms `P50 "server_query_ns";
    flip_p50_ms = ms flip_stat "server_flip_ns";
    flips = Child.stat_int st "flips";
    busy_rejections = Child.stat_int st "busy_rejections";
    fsyncs = Child.stat_int st "wal_fsyncs";
    wal_bytes = Child.stat_int st "wal_bytes";
    rows;
    roundtrip_us = 1e3 *. Util.median (Util.Sample.to_array p.lat);
    ping_late_p99_ms =
      (match ping_late with
      | Some x -> x
      | None -> Util.quantile (Util.Sample.to_array p.late) 0.99);
    data_copy = copy;
  }

(* ---------------------------------------------------------------- *)
(* Results                                                            *)
(* ---------------------------------------------------------------- *)

(* What a traced run hands to the per-layer replays. *)
type traced = {
  eval : Layers.eval_obs;  (** an evaluation of the run's generation, counters on *)
  input : Layers.input;
  extra_wrong : int;  (** wrong answers found while gathering it *)
  cleanup : unit -> unit;
}

type outcome = {
  attempted : int;
  failed : int;  (** ERR busy / transport errors *)
  wrong : int;  (** answers that did not match *)
  e2e : Layers.metric list;
  notes : Layers.metric list;  (** reported, not gated *)
  sizes : (string * int) list;
  replay : (Pool.t -> traced) option;  (** traced runs only *)
}

(* A serving workload's replay: the flip, evaluated in-process. *)
let replay_flip input cleanup pool =
  {
    eval = Layers.evaluate ~counters:true pool input.Layers.program input.Layers.facts;
    input;
    extra_wrong = 0;
    cleanup;
  }

let edge_line (a, b) = Printf.sprintf "%d %d" a b
let tuples_of edges = Array.map (fun (a, b) -> [| a; b |]) edges
let cap n l = List.filteri (fun i _ -> i < n) l

(* A node with out-edges whose [edge k _] answer ends set-up. *)
let probe_node g =
  let rec go k = if Array.length g.succ.(k) > 0 then k else go (k + 1) in
  go 0

(* ---------------------------------------------------------------- *)
(* serve-point-read                                                   *)
(* ---------------------------------------------------------------- *)

let point_read env ~seed ~seconds ~nodes ~setups =
  let g = graph ~seed ~nodes in
  let lines = Array.to_list (Array.map edge_line g.edges) in
  let memo = Hashtbl.create 4096 in
  let k0 = probe_node g in
  let live, setup_s =
    setup_repeated env ~n:setups ~tag:"pr" ~rules:program_text
      ~loads:[ ("edge", lines) ] ~probe:(query_line (Edge_from k0))
      ~check:(answer_ok g memo (Edge_from k0))
  in
  let rng = Rng.create (structure_seed + 1) in
  let perm = Array.init g.nodes Fun.id in
  Rng.shuffle rng perm;
  let zipf = Zipf.create g.nodes in
  let next () =
    let k = g.label.(perm.(Zipf.sample zipf rng)) in
    let r = Rng.int rng 100 in
    if r < 10 then Two_to k else if r < 55 then Edge_from k else Two_from k
  in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 in
  let sent_lines = ref [] and replies = ref [] and asked = ref [] in
  let completions = ref [] and timed = ref [] in
  let conn = Conn.connect live.child.Child.sock in
  let loop = Spans.start "workload" "serve-point-read" in
  let start = Util.now_ns () in
  let until = start + int_of_float (seconds *. 1e9) in
  let ask q on_done =
    let line = query_line q in
    incr attempted;
    if env.traced && !attempted <= 20_000 then begin
      sent_lines := line :: !sent_lines;
      asked := q :: !asked
    end;
    let span = Spans.start ~parent:loop ~rid:!attempted "client" "query" in
    let t0 = Util.now_ns () in
    ( line ^ "\n",
      span,
      fun r t ->
        (match r with
        | Ok (Dl_client.Data (info, rows)) ->
          if answer_ok g memo q rows then begin
            completions := t :: !completions;
            timed := (t, Util.ms (t - t0)) :: !timed
          end
          else incr wrong;
          if env.traced && !attempted <= 2000 then
            replies := Dl_proto.R_data (info, rows) :: !replies
        | Ok (Dl_client.Err ("busy", _)) | Error _ -> incr failed
        | Ok _ -> incr wrong);
        on_done () )
  in
  (* Two clients' queries per round, written together so the server admits
     them into one reader phase, where its two workers take one each; the
     next round starts when both are answered.  Two free-running
     connections instead drift between sharing a phase and taking turns,
     depending on scheduling, which moved p50 latency and throughput by
     half from run to run on a loaded 2-core box. *)
  let rec round () =
    if Util.now_ns () < until && conn.Conn.alive then begin
      let left = ref 2 in
      let on_done () =
        decr left;
        if !left = 0 then round ()
      in
      Conn.send_all conn [ ask (next ()) on_done; ask (next ()) on_done ]
    end
  in
  round ();
  while Conn.in_flight conn > 0 do
    Steal.mark ();
    Conn.wait [ conn ] 0.1
  done;
  let elapsed = Util.secs (Util.now_ns () - start) in
  Spans.stop loop;
  Conn.close conn;
  let rss = Child.peak_rss_mb live.child.Child.pid in
  let cpu = Child.cpu_s live.child.Child.pid in
  (* failed operations miss every latency limit: they count as taking
     the whole run *)
  (* 1 s windows, keeping those in calm time *)
  let window_ns = 1_000_000_000 in
  let nwin = 1 + ((Util.now_ns () - start) / window_ns) in
  let calm_win = Array.make nwin false in
  List.iter
    (fun w -> calm_win.(w) <- true)
    (Steal.calm
       (List.init nwin (fun w ->
            (w, Steal.share (start + (w * window_ns)) (start + ((w + 1) * window_ns))))));
  let in_calm w = calm_win.(min (nwin - 1) w) in
  let timed = List.filter (fun (t, _) -> in_calm ((t - start) / window_ns)) !timed in
  let l =
    Array.append
      (Array.of_list (List.map snd timed))
      (Array.make (!failed + !wrong) (elapsed *. 1e3))
  in
  let answered = !attempted - !failed - !wrong in
  let e2e =
    [
      ("latency_p50_ms", Util.quantile l 0.5, "ms");
      (* p90 per 5 s window (about 700 samples, so 70 beyond it), median
         over the windows: a burst of outside load moves one window.  Higher
         percentiles swung with CPU steal from run to run (a window's p99
         from 21 to 62 ms, its p95 by a quarter). *)
      ( "latency_tail_ms",
        (if !failed + !wrong > 0 then Util.quantile l 0.9
         else Util.windowed_quantile ~start ~window_ns:5_000_000_000 0.9 timed),
        "ms" );
      ( "throughput_per_s",
        Util.windowed_rate ~keep:in_calm ~start ~window_ns !completions,
        "1/s" );
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let notes =
    [
      ("latency_samples", float_of_int answered, "count");
      ("calm_samples", float_of_int (List.length timed), "count");
      ("latency_p99_ms", Util.quantile l 0.99, "ms");
      ("mean_rate_per_s", float_of_int answered /. elapsed, "1/s");
      ("server_cpu_s", cpu, "s");
    ]
  in
  let replay =
    if not env.traced then begin
      stop live;
      None
    end
    else begin
      (* one flip loads the graph (the other installs the empty program):
         the histogram max is that flip *)
      let obs = observe env live ~rows:(Array.length g.edges) ~ping_late:None ~flip_stat:`Max in
      stop live;
      let asked = List.rev !asked in
      Some
        (replay_flip
           {
            Layers.program = Parser.parse_string program_text;
            facts = [ ("edge", tuples_of g.edges) ];
            queries = List.map query_pattern (cap 300 asked);
            request_lines = List.rev !sent_lines;
            fact_lines = cap 100_000 lines;
            responses = List.rev !replies;
            wal_groups = [ [ ("edge", lines) ] ];
            tuples = tuples_of g.edges;
            probes =
              Array.of_list
                (List.map (function Edge_from k | Two_from k | Two_to k -> k) asked);
            server = obs;
          }
           (fun () -> Util.rm_rf obs.Layers.data_copy))
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    wrong = !wrong;
    e2e;
    notes;
    sizes = [ ("nodes", g.nodes); ("edge_rows", Array.length g.edges) ];
    replay;
  }

(* ---------------------------------------------------------------- *)
(* serve-ingest                                                       *)
(* ---------------------------------------------------------------- *)

let ingest env ~seed ~seconds ~nodes ~setups ~restarts ~batch ~ping_hz =
  let g = graph ~seed ~nodes in
  let base_lines = Array.to_list (Array.map edge_line g.edges) in
  let memo = Hashtbl.create 16 in
  let k0 = probe_node g in
  let live, setup_s =
    setup_repeated env ~n:setups ~tag:"in" ~rules:program_text
      ~loads:[ ("edge", base_lines) ] ~probe:(query_line (Edge_from k0))
      ~check:(answer_ok g memo (Edge_from k0))
  in
  let rng = Rng.create (structure_seed + 2) in
  (* fresh edges between existing nodes: never in the base graph, never
     repeated, so acked rows add up exactly *)
  let fresh () =
    let rec go () =
      let a = g.label.(Rng.int rng g.nodes) in
      let b = g.label.(Rng.int rng g.nodes) in
      if a = b || Hashtbl.mem g.present (a, b) then go ()
      else begin
        Hashtbl.add g.present (a, b) ();
        (a, b)
      end
    in
    go ()
  in
  (* (visibility ms, step ms) of each step, with the step's interval *)
  let steps = ref [] in
  let attempted = ref 0 and failed = ref 0 and wrong = ref 0 and requeries = ref 0 in
  let acked = ref [] and acked_n = ref 0 and visible_rows = ref 0 in
  let groups = ref [] and sent_lines = ref [] and replies = ref [] in
  let a = Conn.connect live.child.Child.sock in
  let b = Conn.connect live.child.Child.sock in
  let loop = Spans.start "workload" "serve-ingest" in
  let start = Util.now_ns () in
  let until = start + int_of_float (seconds *. 1e9) in
  let last_done = ref start in
  let pg = pinger b ~hz:ping_hz ~start in
  let rec step () =
    if Util.now_ns () < until && a.Conn.alive then begin
      let edges = Array.init batch (fun _ -> fresh ()) in
      let lines = Array.to_list (Array.map edge_line edges) in
      incr attempted;
      let rid = !attempted in
      let sspan = Spans.start ~parent:loop ~rid "client" "ingest_step" in
      let t0 = Util.now_ns () in
      let header = Printf.sprintf "LOAD edge %d" batch in
      if env.traced then begin
        groups := [ ("edge", lines) ] :: !groups;
        sent_lines := header :: !sent_lines
      end;
      let lspan = Spans.start ~parent:sspan ~rid "client" "load" in
      Conn.send ~span:lspan a (Conn.payload header lines) (fun r _ ->
          match r with
          | Ok (Dl_client.Ok_ _) ->
            acked := edges :: !acked;
            acked_n := !acked_n + batch;
            let u, v = edges.(Rng.int rng batch) in
            let line = Printf.sprintf "QUERY edge %d %d" u v in
            if env.traced then sent_lines := line :: !sent_lines;
            let rec look tries =
              let qspan = Spans.start ~parent:sspan ~rid "client" "query" in
              Conn.send ~span:qspan a (line ^ "\n") (fun r t ->
                  match r with
                  | Ok (Dl_client.Data (info, rows)) ->
                    if env.traced && List.length !replies < 2000 then
                      replies := Dl_proto.R_data (info, rows) :: !replies;
                    if rows = [ Printf.sprintf "%d\t%d" u v ] then begin
                      Spans.stop sspan;
                      steps := ((Util.ms (t - t0), Util.ms (t - !last_done)), (t0, t)) :: !steps;
                      visible_rows := !visible_rows + batch;
                      last_done := t;
                      step ()
                    end
                    else if rows = [] && tries < 100 then begin
                      incr requeries;
                      look (tries + 1)
                    end
                    else begin
                      incr wrong;
                      step ()
                    end
                  | Ok (Dl_client.Err ("busy", _)) | Error _ ->
                    incr failed;
                    step ()
                  | Ok _ ->
                    incr wrong;
                    step ())
            in
            look 0
          | Ok (Dl_client.Err ("busy", _)) | Error _ ->
            incr failed;
            step ()
          | Ok _ ->
            incr wrong;
            step ())
    end
  in
  step ();
  while Conn.in_flight a > 0 || Conn.in_flight b > 0 || Util.now_ns () < until do
    let dt = pinger_tick ~parent:loop pg ~until in
    Steal.mark ();
    Conn.wait [ a; b ] (if Util.now_ns () < until then Float.min dt 0.1 else 0.1)
  done;
  Spans.stop loop;
  Conn.close a;
  Conn.close b;
  let elapsed = Util.secs (!last_done - start) in
  let rss = Child.peak_rss_mb live.child.Child.pid in
  let cpu = Child.cpu_s live.child.Child.pid in
  let base = Array.length g.edges in
  let rows = base + !acked_n in
  let obs =
    if env.traced then
      Some
        (observe env live ~rows ~flip_stat:`P50
           ~ping_late:(Some (Util.quantile (Util.Sample.to_array pg.late) 0.99)))
    else None
  in
  (* Restart on the same dir, timing until the first QUERY answers. *)
  let all_acked = Array.concat !acked in
  let sample_acked n =
    List.init (min n (Array.length all_acked)) (fun _ ->
        all_acked.(Rng.int rng (Array.length all_acked)))
  in
  let present c (u, v) =
    match Dl_client.query c "edge" [ string_of_int u; string_of_int v ] with
    | Ok (Dl_client.Data (_, [ row ])) -> row = Printf.sprintf "%d\t%d" u v
    | _ -> false
  in
  let rec_times = Util.Sample.create () in
  let rec recover live i =
    Child.shutdown live.child live.client;
    let (u, v) = match sample_acked 1 with [ e ] -> e | _ -> g.edges.(0) in
    let parent = Spans.start "recovery" "recovery" in
    let t0 = Util.now_ns () in
    let child =
      Child.spawn ~exe:env.exe ~sock:live.child.Child.sock ?msock:live.child.Child.msock
        ~dir:live.child.Child.dir ~log:(Filename.concat env.out "in.log") ()
    in
    let client = Child.connect child in
    let ok = present client (u, v) in
    Util.Sample.add rec_times (Util.secs (Util.now_ns () - t0));
    Spans.stop parent;
    if not ok then incr wrong;
    let live = { child; client; setup_ns = 0 } in
    if i + 1 < restarts then recover live (i + 1) else live
  in
  let live = recover live 0 in
  let st = Child.stats live.client in
  if Child.stat_int st "rel.edge" <> rows then begin
    Util.log "recovered rel.edge=%d, expected %d" (Child.stat_int st "rel.edge") rows;
    incr wrong
  end;
  List.iter (fun e -> if not (present live.client e) then incr wrong) (sample_acked 20);
  let pings = Util.Sample.to_array pg.lat in
  let late = Util.Sample.to_array pg.late in
  let ping_failed = pg.sent - Array.length pings in
  let miss_ms = Util.ms (Util.now_ns () - start) in
  let pings = Array.append pings (Array.make (max 0 ping_failed) miss_ms) in
  let calm =
    Array.of_list (Steal.calm (List.map (fun (x, (t0, t1)) -> (x, Steal.share t0 t1)) !steps))
  in
  let v = Array.append (Array.map fst calm) (Array.make (!failed + !wrong) miss_ms) in
  let ping_p99 = Util.quantile pings 0.99 in
  let late_p99 = Util.quantile late 0.99 in
  (* the generator, not the server, fell behind when its own lateness is
     a visible share of what it measured *)
  let behind = late_p99 > 5. && late_p99 > 0.1 *. ping_p99 in
  if behind then Util.log "WARNING: pinger fell behind (send lateness p99 %.2f ms)" late_p99;
  let e2e =
    [
      ("latency_p50_ms", Util.quantile v 0.5, "ms");
      (* p75: with ~45 steps a run, the highest percentile that keeps
         ten samples beyond it *)
      ("latency_tail_ms", Util.quantile v 0.75, "ms");
      (* closed loop: one batch per step, at the median step time *)
      ( "throughput_per_s",
        float_of_int batch /. (Util.median (Array.map snd calm) /. 1e3),
        "1/s" );
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let notes =
    [
      ("ping_p99_ms", ping_p99, "ms");
      ("ping_p50_ms", Util.quantile pings 0.5, "ms");
      ("gen_ping_late_p99_ms", late_p99, "ms");
      ("generator_behind", (if behind then 1. else 0.), "flag");
      ("recovery_s", Util.median (Util.Sample.to_array rec_times), "s");
      ("latency_samples", float_of_int (List.length !steps + !failed + !wrong), "count");
      ("calm_samples", float_of_int (Array.length calm), "count");
      ("mean_rate_per_s", float_of_int !visible_rows /. elapsed, "1/s");
      ("requeries", float_of_int !requeries, "count");
      ("pings", float_of_int pg.sent, "count");
      ("server_cpu_s", cpu, "s");
    ]
  in
  stop live;
  let attempted_all = !attempted + pg.sent in
  let failed_all = !failed + ping_failed in
  let replay =
    Option.map
      (fun obs ->
        let final = Array.append g.edges all_acked in
        replay_flip
          {
            Layers.program = Parser.parse_string program_text;
            facts = [ ("edge", tuples_of final) ];
            queries =
              List.map (fun (u, v) -> ("edge", [| Some u; Some v |])) (sample_acked 300);
            request_lines = List.rev !sent_lines;
            fact_lines = cap 100_000 (base_lines @ List.concat_map (fun gr -> snd (List.hd gr)) !groups);
            responses = List.rev !replies;
            wal_groups = [ ("edge", base_lines) ] :: List.rev !groups;
            tuples = tuples_of final;
            probes = Array.map fst all_acked;
            server = obs;
          }
          (fun () -> Util.rm_rf obs.Layers.data_copy))
      obs
  in
  {
    attempted = attempted_all;
    failed = failed_all;
    wrong = !wrong;
    e2e;
    notes;
    sizes = [ ("nodes", g.nodes); ("edge_rows", base); ("batch_rows", batch); ("acked_rows", !acked_n) ];
    replay;
  }
