(* eval-pointsto: the paper's Fig. 5a in-process.  Each evaluation
   generates the seeded points-to facts, creates a B-tree engine, queues
   the facts (set-up), then runs semi-naive evaluation to fixed point on
   a pool of 2 (timed).  The result is checked against a hash-set engine
   on the same facts, outside the timed section.

   The engine's storage kind is [default_storage] unless --eval-storage
   names another.  The default is the paper's tree with operation hints
   disabled: with hints on and a pool of 2, the fixed point intermittently
   misses a few derived tuples (see README.md, "Known defect"), and the
   check then fails the run.  `--eval-storage btree` measures and checks
   the hinted tree. *)

let config = Pointsto_gen.scaled 1.0

(* The generator's own seed fixes the program structure, and with it the
   amount of work: derived sizes swing by 2x between generator seeds, which
   would drown any change in the code under test.  The benchmark seed picks
   an isomorphic instance instead: it relabels variables, objects and fields
   by independent seeded permutations and shuffles the fact order, so keys,
   tree shapes and insertion orders change while every relation keeps its
   cardinality.  Structure seed 42 derives about 660k tuples. *)
let structure_seed = 42

let default_storage = "btree-nohints"

type domain = V | O | F

(* Column domains of the input relations (Pointsto_gen's schema). *)
let columns = function
  | "new" -> [| V; O |]
  | "assign" -> [| V; V |]
  | "load" -> [| V; V; F |]
  | "store" -> [| V; F; V |]
  | "store_ok" -> [| F; O |]
  | r -> failwith ("unexpected input relation " ^ r)

type setup = { program : Ast.program; facts : (string * int array array) list }

let gen ~seed =
  let raw = Pointsto_gen.facts config (Rng.create structure_seed) in
  let rng = Rng.create seed in
  let values = Hashtbl.create 3 in
  List.iter
    (fun (r, t) ->
      Array.iteri (fun i d -> Hashtbl.replace values (d, t.(i)) ()) (columns r))
    raw;
  let perm = Hashtbl.create 4096 in
  List.iter
    (fun d ->
      let vs =
        Array.of_list
          (List.sort compare
             (Hashtbl.fold (fun (d', v) () acc -> if d' = d then v :: acc else acc) values []))
      in
      let img = Array.copy vs in
      Rng.shuffle rng img;
      Array.iteri (fun i v -> Hashtbl.replace perm (d, v) img.(i)) vs)
    [ V; O; F ];
  let by_rel = Hashtbl.create 8 in
  List.iter
    (fun (r, t) ->
      let cols = columns r in
      let t = Array.mapi (fun i v -> Hashtbl.find perm (cols.(i), v)) t in
      Hashtbl.replace by_rel r (t :: Option.value ~default:[] (Hashtbl.find_opt by_rel r)))
    raw;
  let facts =
    Hashtbl.fold
      (fun r ts acc ->
        let a = Array.of_list ts in
        Rng.shuffle rng a;
        (r, a) :: acc)
      by_rel []
    |> List.sort compare
  in
  { program = Pointsto_gen.program config; facts }

(* Per-relation (cardinality, order-independent checksum). *)
let fingerprint e =
  List.map
    (fun r -> (r, Engine.relation_size e r, Util.set_checksum (Engine.iter_relation e r)))
    (List.sort compare (Engine.relations e))

(* Traced run: the server-side layers have no part in this workload, so
   they are observed by serving the same facts from a datalog_serve child
   (one flip of this program, point queries on its result). *)
let server_pass (env : Serve.env) ~storage ~seed (o : Layers.eval_obs) (s : setup) =
  let rules = Serve.program_source s.program in
  let loads =
    List.map
      (fun (r, tups) ->
        (r, Array.to_list (Array.map (fun t -> String.concat " " (Array.to_list (Array.map string_of_int t))) tups)))
      s.facts
  in
  let vpt = Engine.relation_list o.Layers.engine Pointsto_gen.output_relation in
  let vars = Array.of_list (List.sort_uniq compare (List.map (fun t -> t.(0)) vpt)) in
  let by_var = Hashtbl.create 4096 in
  List.iter (fun t -> Hashtbl.replace by_var t.(0) (Printf.sprintf "%d\t%d" t.(0) t.(1) :: Option.value ~default:[] (Hashtbl.find_opt by_var t.(0)))) vpt;
  let expect_of k = List.sort compare (Option.value ~default:[] (Hashtbl.find_opt by_var k)) in
  let q k = Printf.sprintf "QUERY %s %d _" Pointsto_gen.output_relation k in
  let live =
    Serve.start ~storage env ~tag:"ev" ~rules ~loads ~probe:(q vars.(0))
      ~check:(fun rows -> List.sort compare rows = expect_of vars.(0))
  in
  let rng = Rng.create (seed + 3) in
  let zipf = Zipf.create (Array.length vars) in
  let keys = Array.init 50 (fun _ -> vars.(Zipf.sample zipf rng)) in
  let wrong = ref 0 and lines = ref [] and replies = ref [] in
  let parent = Spans.start "workload" "server-pass" in
  Array.iteri
    (fun rid k ->
      let line = q k in
      lines := line :: !lines;
      match Spans.with_ ~parent ~rid "client" "query" (fun _ -> Dl_client.request live.Serve.client line) with
      | Ok (Dl_client.Data (info, rows)) ->
        replies := Dl_proto.R_data (info, rows) :: !replies;
        if List.sort compare rows <> expect_of k then incr wrong
      | _ -> incr wrong)
    keys;
  Spans.stop parent;
  let rows = List.fold_left (fun a (_, l) -> a + List.length l) 0 loads in
  let obs = Serve.observe env live ~rows ~ping_late:None ~flip_stat:`Max in
  Serve.stop live;
  let vpt_tuples = Array.of_list vpt in
  ( !wrong,
    {
      Layers.program = s.program;
      facts = s.facts;
      queries = Array.to_list (Array.map (fun k -> (Pointsto_gen.output_relation, [| Some k; None |])) keys);
      request_lines = List.rev !lines @ List.map (fun (r, l) -> Printf.sprintf "LOAD %s %d" r (List.length l)) loads;
      fact_lines = List.concat_map snd loads;
      responses = List.rev !replies;
      wal_groups = [ loads ];
      tuples = vpt_tuples;
      probes = keys;
      server = obs;
    },
    fun () -> Util.rm_rf obs.Layers.data_copy )

let run (env : Serve.env) ~storage ~seed ~seconds ~min_evals ~setup_repeats pool =
  let kind =
    match Storage.kind_of_name storage with
    | Some k -> k
    | None -> invalid_arg ("unknown storage kind " ^ storage)
  in
  let setups = Util.Sample.create () in
  (* (run ms, derived tuples per second) of each evaluation, with its
     stolen CPU share *)
  let evals = ref [] in
  let derived = ref 0 and total_run_ns = ref 0 and prints = ref [] in
  let loop = Spans.start "workload" "eval-pointsto" in
  let start = Util.now_ns () in
  let until = start + int_of_float (seconds *. 1e9) in
  (* set-up is cheap next to an evaluation, so it is repeated on its own
     to give its median enough samples *)
  for rid = 1 to setup_repeats do
    Gc.compact ();
    let t0 = Util.now_ns () in
    Spans.with_ ~parent:loop ~rid "workload" "setup" (fun _ ->
        let s = gen ~seed in
        let e = Engine.create ~kind s.program in
        List.iter (fun (r, t) -> Engine.add_fact_run e r t) s.facts);
    Util.Sample.add setups (Util.secs (Util.now_ns () - t0))
  done;
  let n = ref 0 in
  while Util.now_ns () < until || !n < min_evals do
    incr n;
    (* start each evaluation from the same heap, without the previous
       engine's garbage *)
    Gc.compact ();
    let t0 = Util.now_ns () in
    let s = Spans.with_ ~parent:loop ~rid:!n "workload" "gen" (fun _ -> gen ~seed) in
    let gen_ns = Util.now_ns () - t0 in
    Steal.mark ();
    let t1 = Util.now_ns () in
    let o = Layers.evaluate ~kind ~parent:loop pool s.program s.facts in
    let t2 = Util.now_ns () in
    Steal.mark ();
    Util.Sample.add setups (Util.secs (gen_ns + o.Layers.create_ns + o.Layers.add_ns));
    let rate = float_of_int o.Layers.derived /. Util.secs o.Layers.run_ns in
    evals := ((Util.ms o.Layers.run_ns, rate), Steal.share t1 t2) :: !evals;
    derived := o.Layers.derived;
    total_run_ns := !total_run_ns + o.Layers.run_ns;
    prints := fingerprint o.Layers.engine :: !prints
  done;
  Spans.stop loop;
  let rss = Child.peak_rss_mb (Unix.getpid ()) in
  let s = gen ~seed in
  (* check every evaluation: same cardinalities and checksums as a
     non-B-tree engine on the same facts *)
  let reference = Layers.evaluate ~kind:Storage.Hashset pool s.program s.facts in
  let want = fingerprint reference.Layers.engine in
  let mismatch got =
    got <> want
    && begin
         List.iter2
           (fun (r, n, c) (_, n', c') ->
             if n <> n' || c <> c' then
               Util.log "mismatch in %s: %d tuples (checksum %x), hashset %d (%x)" r n c n' c')
           got want;
         true
       end
  in
  let wrong = List.length (List.filter mismatch !prints) in
  let calm = Array.of_list (Steal.calm !evals) in
  let r = Array.map fst calm in
  let e2e =
    [
      ("latency_p50_ms", Util.median r, "ms");
      ("latency_tail_ms", Util.quantile r 0.9, "ms");
      ("throughput_per_s", Util.median (Array.map snd calm), "1/s");
      ("setup_s", Util.median (Util.Sample.to_array setups), "s");
      ("peak_rss_mb", rss, "MiB");
    ]
  in
  let input_rows = List.fold_left (fun a (_, t) -> a + Array.length t) 0 s.facts in
  (* the traced run's counters come from one more evaluation, after the
     timed ones, so those stay comparable with the untraced run *)
  let replay pool =
    let ev = Layers.evaluate ~kind ~counters:true pool s.program s.facts in
    let bad = if mismatch (fingerprint ev.Layers.engine) then 1 else 0 in
    let w, input, cleanup = server_pass env ~storage ~seed ev s in
    { Serve.eval = ev; input; extra_wrong = bad + w; cleanup }
  in
  {
    Serve.attempted = !n;
    failed = 0;
    wrong;
    e2e;
    notes =
      [
        ("latency_samples", float_of_int !n, "count");
        ("calm_samples", float_of_int (Array.length calm), "count");
        ("mean_rate_per_s", float_of_int (!n * !derived) /. Util.secs !total_run_ns, "1/s");
      ];
    sizes = [ ("input_facts", input_rows); ("derived_tuples", !derived) ];
    replay = (if env.Serve.traced then Some replay else None);
  }
