(* Per-layer attribution for the traced run.  Everything here calls a
   layer's public functions from outside, on the run's own inputs, and
   times those calls (or reads counters the program already exports:
   STATS, /metrics, the Telemetry registry, Gc).  Nothing inside the
   program is instrumented for the benchmark. *)

type server_obs = {
  query_p50_ms : float;  (** Server_query_ns p50 from /metrics *)
  flip_p50_ms : float;
      (** Server_flip_ns from /metrics: the p50, or the max where one flip
          loads all the data *)
  flips : int;  (** STATS flips *)
  busy_rejections : int;  (** STATS busy_rejections *)
  fsyncs : int;  (** STATS wal_fsyncs *)
  wal_bytes : int;  (** STATS wal_bytes *)
  rows : int;  (** fact rows the run loaded *)
  roundtrip_us : float;  (** PING to an idle server, p50 *)
  ping_late_p99_ms : float;  (** how late the pinger sent, p99 *)
  data_copy : string;  (** copy of the run's data dir, for replay *)
}

type input = {
  program : Ast.program;
  facts : (string * int array array) list;  (** base facts of the generation *)
  queries : (string * int option array) list;  (** point queries to replay *)
  request_lines : string list;  (** request lines the run sent *)
  fact_lines : string list;  (** payload lines the run sent *)
  responses : Dl_proto.response list;  (** replies the run received *)
  wal_groups : (string * string list) list list;
      (** fact records the run logged, one group per flip *)
  tuples : int array array;  (** the workload's own arity-2 tuples *)
  probes : int array;  (** first-column keys the run asked for *)
  server : server_obs;
}

type metric = string * float * string

(* Quantile of a bucketed Telemetry histogram, interpolated linearly
   inside the bucket that holds the rank (ns).  [counts] is
   (bucket index, samples) for the non-empty buckets in bucket order.
   Bucket midpoints would read the same value on many runs. *)
let bucket_quantile counts q =
  let total = List.fold_left (fun a (_, c) -> a + c) 0 counts in
  if total = 0 then nan
  else begin
    let rank = q *. float_of_int total in
    let rec go seen = function
      | [] -> nan
      | (b, c) :: rest ->
        let lo, hi = Telemetry.Hist.bucket_bounds b in
        if float_of_int (seen + c) >= rank || rest = [] then
          float_of_int lo
          +. (float_of_int (hi - lo) *. Float.max 0. (rank -. float_of_int seen) /. float_of_int c)
        else go (seen + c) rest
    in
    go 0 counts
  end

let hist_quantile (h : Telemetry.hist) q =
  bucket_quantile
    (List.filter (fun (_, c) -> c > 0) (List.mapi (fun b c -> (b, c)) (Array.to_list h.Telemetry.h_counts)))
    q

(* ---------------------------------------------------------------- *)
(* Engine / Eval / Btree counters / Pool / GC                        *)
(* ---------------------------------------------------------------- *)

type eval_obs = {
  engine : Engine.t;
  create_ns : int;
  add_ns : int;
  run_ns : int;
  derived : int;
  snap : Telemetry.snapshot option;  (** counters of this evaluation *)
  major_collections : int;
  major_words : float;
}

let derived_tuples e =
  let inputs = Engine.input_relations e in
  List.fold_left
    (fun a r -> if List.mem r inputs then a else a + Engine.relation_size e r)
    0 (Engine.relations e)

(* One evaluation the way a flip builds a generation: create, queue the
   base facts as runs, run on the pool.  With [counters] the Telemetry
   registry is reset and enabled around it. *)
let evaluate ?(kind = Storage.Btree) ?(counters = false) ?(parent = Spans.none) pool
    program facts =
  if counters then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let g0 = Gc.quick_stat () in
  let t0 = Util.now_ns () in
  let e =
    Spans.with_ ~parent "engine" "engine.create" (fun _ -> Engine.create ~kind program)
  in
  let t1 = Util.now_ns () in
  Spans.with_ ~parent "engine" "engine.add_facts" (fun _ ->
      List.iter (fun (rel, tups) -> Engine.add_fact_run e rel tups) facts);
  let t2 = Util.now_ns () in
  Spans.with_ ~parent "engine" "engine.run" (fun _ -> Engine.run e pool);
  let t3 = Util.now_ns () in
  let g1 = Gc.quick_stat () in
  let snap =
    if counters then begin
      let s = Telemetry.snapshot () in
      Telemetry.disable ();
      Some s
    end
    else None
  in
  {
    engine = e;
    create_ns = t1 - t0;
    add_ns = t2 - t1;
    run_ns = t3 - t2;
    derived = derived_tuples e;
    snap;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    major_words = g1.Gc.major_words -. g0.Gc.major_words;
  }

let eval_metrics (o : eval_obs) : metric list =
  let s = Option.get o.snap in
  let get c = float_of_int (Telemetry.get s c) in
  let per_mop x = x /. (float_of_int (max 1 o.derived) /. 1e6) in
  [
    ("engine.create_ms", Util.ms o.create_ns, "ms");
    ("engine.add_facts_ms", Util.ms o.add_ns, "ms");
    ("engine.run_ms", Util.ms o.run_ns, "ms");
    ("eval.iterations", get Telemetry.Counter.Eval_iterations, "count");
    ("eval.rule_evals", get Telemetry.Counter.Eval_rule_evals, "count");
    ("eval.delta_tuples", get Telemetry.Counter.Eval_delta_tuples, "count");
    ( "eval.iteration_p50_ms",
      hist_quantile (Telemetry.hist_of s Telemetry.Hist.Eval_iteration_ns) 0.5 /. 1e6,
      "ms" );
    ("btree.hint_hit_rate", Telemetry.hint_hit_rate s, "ratio");
    ("btree.restarts_per_mop", per_mop (get Telemetry.Counter.Btree_restarts), "1/Mtuple");
    ( "olock.validation_failures_per_mop",
      per_mop (get Telemetry.Counter.Olock_validation_failures),
      "1/Mtuple" );
    ("pool.utilisation", Telemetry.imbalance s, "ratio");
    ("gc.major_collections", float_of_int o.major_collections, "count");
    ("gc.major_words_per_tuple", o.major_words /. float_of_int (max 1 o.derived), "words");
  ]

(* ---------------------------------------------------------------- *)
(* Relation: the server's query path, replayed per query             *)
(* ---------------------------------------------------------------- *)

let scan_metrics ~parent e queries : metric list =
  let times = Util.Sample.create () in
  let examined = ref 0 and results = ref 0 in
  List.iteri
    (fun rid (rel, pats) ->
      let r = Engine.relation e rel in
      let t0 = Util.now_ns () in
      Spans.with_ ~parent ~rid "relation" "relation.scan" (fun _ ->
          let reader = Relation.begin_read r in
          Fun.protect
            ~finally:(fun () -> Relation.Reader.finish reader)
            (fun () ->
              Relation.Reader.scan reader (-1) [||] (fun tup ->
                  incr examined;
                  let ok = ref true in
                  Array.iteri
                    (fun j p -> match p with Some v when tup.(j) <> v -> ok := false | _ -> ())
                    pats;
                  if !ok then incr results)));
      Util.Sample.add times (Util.ms (Util.now_ns () - t0)))
    queries;
  [
    ("relation.scan_ms", Util.median (Util.Sample.to_array times), "ms");
    ( "relation.rows_examined_per_result",
      float_of_int !examined /. float_of_int (max 1 !results),
      "ratio" );
  ]

(* ---------------------------------------------------------------- *)
(* Dl_proto over the run's own lines                                 *)
(* ---------------------------------------------------------------- *)

(* Mean cost of [f] over [items], cycling until ~[budget_ns] is spent. *)
let per_item ?(budget_ns = 150_000_000) items f =
  let a = Array.of_list items in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let t0 = Util.now_ns () in
    let count = ref 0 in
    while Util.now_ns () - t0 < budget_ns || !count < n do
      f a.(!count mod n);
      incr count
    done;
    float_of_int (Util.now_ns () - t0) /. float_of_int !count
  end

let proto_metrics ~parent inp : metric list =
  let sink = ref 0 in
  let parse_req =
    Spans.with_ ~parent "proto" "proto.parse_request" (fun _ ->
        per_item inp.request_lines (fun l ->
            match Dl_proto.parse_request l with Ok _ -> incr sink | Error _ -> ()))
  in
  let parse_fact =
    Spans.with_ ~parent "proto" "proto.parse_fact" (fun _ ->
        per_item inp.fact_lines (fun l ->
            match Dl_proto.parse_fact l with Ok _ -> incr sink | Error _ -> ()))
  in
  let buf = Buffer.create 65536 in
  let render =
    Spans.with_ ~parent "proto" "proto.render" (fun _ ->
        per_item inp.responses (fun r ->
            Buffer.clear buf;
            Dl_proto.render buf r))
  in
  [
    ("proto.parse_request_ns", parse_req, "ns");
    ("proto.parse_fact_ns", parse_fact, "ns");
    ("proto.render_us", render /. 1e3, "us");
  ]

(* ---------------------------------------------------------------- *)
(* Wal: the run's records on a scratch dir, and replay of its dir    *)
(* ---------------------------------------------------------------- *)

let ok_or ctx = function Ok v -> v | Error e -> failwith (ctx ^ ": " ^ e)

let wal_metrics ~parent ~scratch inp : metric list =
  Util.rm_rf scratch;
  let w, _ = ok_or "Wal.open_dir" (Wal.open_dir ~durability:Wal.D_batch scratch) in
  let appends = Util.Sample.create () and syncs = Util.Sample.create () in
  Fun.protect ~finally:(fun () -> Wal.close w) (fun () ->
      List.iter
        (fun group ->
          List.iter
            (fun (rel, lines) ->
              let t0 = Util.now_ns () in
              Spans.with_ ~parent "wal" "wal.append" (fun _ ->
                  ok_or "Wal.append" (Wal.append w (Wal.Facts (rel, lines))));
              Util.Sample.add appends (float_of_int (Util.now_ns () - t0) /. 1e3))
            group;
          let t0 = Util.now_ns () in
          Spans.with_ ~parent "wal" "wal.sync" (fun _ -> ok_or "Wal.sync" (Wal.sync w));
          Util.Sample.add syncs (Util.ms (Util.now_ns () - t0)))
        inp.wal_groups);
  Util.rm_rf scratch;
  let t0 = Util.now_ns () in
  let w, rv =
    Spans.with_ ~parent "wal" "wal.replay" (fun _ ->
        ok_or "Wal.open_dir (replay)" (Wal.open_dir ~durability:Wal.D_batch inp.server.data_copy))
  in
  let replay_ms = Util.ms (Util.now_ns () - t0) in
  Wal.close w;
  if rv.Wal.rv_records = 0 then failwith "replayed data dir holds no records";
  let s = inp.server in
  [
    ("wal.append_us", Util.median (Util.Sample.to_array appends), "us");
    ("wal.sync_ms", Util.median (Util.Sample.to_array syncs), "ms");
    ("wal.fsyncs_per_flip", float_of_int s.fsyncs /. float_of_int (max 1 s.flips), "1/flip");
    ("wal.bytes_per_row", float_of_int s.wal_bytes /. float_of_int (max 1 s.rows), "B/row");
    ("wal.replay_ms", replay_ms, "ms");
  ]

(* ---------------------------------------------------------------- *)
(* Btree_tuples on the workload's own tuples                         *)
(* ---------------------------------------------------------------- *)

let btree_metrics ~parent ~seed inp : metric list =
  let tuples = inp.tuples in
  let n = Array.length tuples in
  let mk () = Btree_tuples.create ~arity:2 ~order:[| 0; 1 |] () in
  let sorted = Array.copy tuples in
  let t = mk () in
  Array.sort (Btree_tuples.compare_tuples t) sorted;
  let shuffled = Array.copy tuples in
  Rng.shuffle (Rng.create seed) shuffled;
  let time name f =
    Spans.with_ ~parent "btree" name (fun _ ->
        let t0 = Util.now_ns () in
        f ();
        float_of_int (Util.now_ns () - t0))
  in
  let batch = time "btree.insert_batch" (fun () -> ignore (Btree_tuples.insert_batch t sorted : int)) in
  let t2 = mk () in
  let ins = time "btree.insert" (fun () -> Array.iter (fun k -> ignore (Btree_tuples.insert t2 k : bool)) shuffled) in
  let mem = time "btree.mem" (fun () -> Array.iter (fun k -> ignore (Btree_tuples.mem t2 k : bool)) shuffled) in
  let s = Btree_tuples.session t2 in
  let probes = Array.map (fun k -> [| k; min_int |]) inp.probes in
  let np = Array.length probes in
  let rounds = max 1 (200_000 / max 1 np) in
  let lb =
    time "btree.lower_bound" (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun p -> ignore (Btree_tuples.s_lower_bound s p : int array option)) probes
        done)
  in
  [
    ("btree.insert_batch_ns_per_key", batch /. float_of_int n, "ns");
    ("btree.insert_ns", ins /. float_of_int n, "ns");
    ("btree.mem_ns", mem /. float_of_int n, "ns");
    ("btree.lower_bound_ns", lb /. float_of_int (max 1 (rounds * np)), "ns");
  ]

let server_metrics (o : eval_obs) inp : metric list =
  let s = inp.server in
  let covered = Util.ms (o.create_ns + o.add_ns + o.run_ns) in
  [
    ("server.query_p50_ms", s.query_p50_ms, "ms");
    ("server.flip_p50_ms", s.flip_p50_ms, "ms");
    ("server.flips", float_of_int s.flips, "count");
    ("server.busy_rejections", float_of_int s.busy_rejections, "count");
    ("flip.unattributed_pct", 100. *. (s.flip_p50_ms -. covered) /. s.flip_p50_ms, "%");
    ("client.roundtrip_us", s.roundtrip_us, "us");
    ("gen.ping_late_p99_ms", s.ping_late_p99_ms, "ms");
  ]

(* Every per-layer metric for one workload.  [eval] is an evaluation of
   the run's generation with counters on (the replayed flip, or for the
   in-process workload one of its own evaluations). *)
let all ~out ~seed (eval : eval_obs) inp : metric list =
  let parent = Spans.start "replay" "layers" in
  let m =
    eval_metrics eval
    @ server_metrics eval inp
    @ scan_metrics ~parent eval.engine inp.queries
    @ proto_metrics ~parent inp
    @ wal_metrics ~parent ~scratch:(Filename.concat out "wal-scratch") inp
    @ btree_metrics ~parent ~seed inp
  in
  Spans.stop parent;
  m
