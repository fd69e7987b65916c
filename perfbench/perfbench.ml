(* End-to-end benchmark of datalog_serve and parallel evaluation.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --server PATH/TO/datalog_serve.exe [--out DIR]
               [--eval-storage KIND]

   Runs one workload (serve-point-read, serve-ingest, eval-pointsto),
   prints every metric with its unit, and ends its standard output with
   one JSON line: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, measured with every
   layer as a black box; with --trace 1 they are the per-layer ones,
   from spans the benchmark records around its own calls plus counters
   the program already exports (see README.md).  A wrong answer makes
   the run exit 1.  --eval-storage picks eval-pointsto's storage kind
   (default btree-nohints, see Evalwl). *)

let workloads = [ "serve-point-read"; "serve-ingest"; "eval-pointsto" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  server : string;
  out : string;
  eval_storage : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload (serve-point-read|serve-ingest|eval-pointsto) --seed N \
     --seconds S --trace 0|1 --server EXE [--out DIR] [--eval-storage KIND]";
  exit 2

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.; trace = false; server = ""; out = "_perfbench";
                eval_storage = Evalwl.default_storage } in
  let rec go = function
    | "--workload" :: v :: r -> a := { !a with workload = v }; go r
    | "--seed" :: v :: r -> a := { !a with seed = int_of_string v }; go r
    | "--seconds" :: v :: r -> a := { !a with seconds = float_of_string v }; go r
    | "--trace" :: ("0" | "1" as v) :: r -> a := { !a with trace = v = "1" }; go r
    | "--server" :: v :: r -> a := { !a with server = v }; go r
    | "--out" :: v :: r -> a := { !a with out = v }; go r
    | "--eval-storage" :: v :: r -> a := { !a with eval_storage = v }; go r
    | [] -> ()
    | x :: _ -> prerr_endline ("unknown argument " ^ x); usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !a.workload workloads) || !a.server = ""
     || Storage.kind_of_name !a.eval_storage = None
  then usage ();
  !a

let json_of_metrics ms =
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %f" n v))
    ms;
  let open Telemetry.Json in
  Obj (List.map (fun (n, v, u) -> (n, Obj [ ("value", Float v); ("unit", String u) ])) ms)

(* Sizes fixed by the workload definitions (README.md). *)
let point_read_nodes = 100_000
let ingest_nodes = 50_000

let run_workload a env pool =
  match a.workload with
  | "serve-point-read" ->
    Serve.point_read env ~seed:a.seed ~seconds:a.seconds ~nodes:point_read_nodes ~setups:3
  | "serve-ingest" ->
    Serve.ingest env ~seed:a.seed ~seconds:a.seconds ~nodes:ingest_nodes ~setups:5 ~restarts:3
      ~batch:64 ~ping_hz:50
  | _ -> Evalwl.run env ~storage:a.eval_storage ~seed:a.seed ~seconds:a.seconds ~min_evals:2 ~setup_repeats:31 pool

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %14.4f %s\n" n v u) ms

let () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Util.mkdir_p a.out;
  let env = { Serve.exe = a.server; out = a.out; traced = a.trace } in
  Spans.on := a.trace;
  at_exit Child.kill_all;
  (* a signal must not orphan the server child: exit runs [kill_all] *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  let steal0, total0 = Child.cpu_ticks () in
  let config =
    [
      ("workload", a.workload);
      ("seed", string_of_int a.seed);
      ("seconds", Printf.sprintf "%g" a.seconds);
      ("trace", if a.trace then "1" else "0");
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("server_jobs", "2");
      ("generator_domains", "1");
      ("eval_pool", "2");
      ("eval_storage", a.eval_storage);
      ("durability", "batch");
      ("data_dir_fs", Child.fs_type a.out);
      ("ocaml", Sys.ocaml_version);
    ]
  in
  let o, layers, extra_wrong =
    Pool.with_pool 2 (fun pool ->
        let o = run_workload a env pool in
        match o.Serve.replay with
        | None -> (o, [], 0)
        | Some replay ->
          let t = replay pool in
          let m = Layers.all ~out:a.out ~seed:a.seed t.Serve.eval t.Serve.input in
          t.Serve.cleanup ();
          if t.Serve.extra_wrong > 0 then
            Util.log "traced replay: %d wrong answers" t.Serve.extra_wrong;
          (o, m, t.Serve.extra_wrong))
  in
  if a.trace && layers = [] then failwith "traced run produced nothing to replay";
  let steal1, total1 = Child.cpu_ticks () in
  let steal_pct = 100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (total1 - total0)) in
  let wrong = o.Serve.wrong + extra_wrong in
  let correct = wrong = 0 in
  print_endline "config";
  List.iter (fun (k, v) -> Printf.printf "  %-36s %s\n" k v) config;
  List.iter (fun (k, v) -> Printf.printf "  %-36s %d\n" ("size." ^ k) v) o.Serve.sizes;
  Printf.printf "  %-36s %.1f\n" "cpu_steal_pct (whole run)" steal_pct;
  print_metrics "end-to-end" o.Serve.e2e;
  print_metrics "workload notes (not gated)" o.Serve.notes;
  let last = Filename.concat a.out ("last-untraced-" ^ a.workload ^ ".json") in
  if not a.trace then begin
    let oc = open_out last in
    Telemetry.Json.output oc (json_of_metrics o.Serve.e2e);
    close_out oc
  end
  else begin
    print_metrics "per-layer" layers;
    print_endline "self time by layer (traced run)";
    List.iter
      (fun (l, tot, self, n) ->
        Printf.printf "  %-20s self %10.2f ms  total %10.2f ms  %6d spans\n" l (Util.ms self)
          (Util.ms tot) n)
      (Spans.self_times ());
    (* tracing overhead: this run's end-to-end numbers against the last
       untraced run of the same workload in this checkout *)
    (match Telemetry.Json.of_string (Util.read_file last) with
    | prev ->
      print_endline "tracing overhead vs last untraced run";
      List.iter
        (fun (n, v, _) ->
          match Telemetry.Json.member n prev with
          | Some o -> (
            match Telemetry.Json.member "value" o with
            | Some (Telemetry.Json.Float p) when p > 0. ->
              Printf.printf "  %-36s %+8.1f%%\n" n (100. *. (v -. p) /. p)
            | _ -> ())
          | None -> ())
        o.Serve.e2e
    | exception _ -> print_endline "tracing overhead: no untraced run recorded in this checkout");
    let path = Filename.concat a.out (Printf.sprintf "trace-%s-%d.json" a.workload a.seed) in
    Spans.write path;
    Printf.printf "spans: %d written to %s\n" (Spans.count ()) path
  end;
  if not correct then Util.log "FAILED: %d wrong answers" wrong;
  let metrics = if a.trace then layers else o.Serve.e2e in
  let open Telemetry.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int o.Serve.attempted);
            ("failed", Int (o.Serve.failed + wrong));
            ("metrics", json_of_metrics metrics);
          ]));
  exit (if correct then 0 else 1)
