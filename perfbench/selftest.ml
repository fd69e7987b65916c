(* The benchmark's own checks, exercised on known-good and known-bad
   inputs: a checker that accepts a wrong answer would let a broken
   program pass every run.  Runs under [dune runtest]. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let () =
  (* Serving answers against the generated graph. *)
  let g = Serve.graph ~seed:7 ~nodes:2000 in
  let memo = Hashtbl.create 16 in
  let k = Serve.probe_node g in
  let rows_of q =
    Array.to_list
      (Array.map
         (fun x ->
           match q with
           | Serve.Edge_from k | Serve.Two_from k -> Printf.sprintf "%d\t%d" k x
           | Serve.Two_to v -> Printf.sprintf "%d\t%d" x v)
         (Serve.expected g q))
  in
  List.iter
    (fun q ->
      let rows = rows_of q in
      check "right answer accepted" (Serve.answer_ok g memo q rows);
      check "reordered answer accepted" (Serve.answer_ok g memo q (List.rev rows));
      if rows <> [] then begin
        check "missing row rejected" (not (Serve.answer_ok g memo q (List.tl rows)));
        check "duplicated row rejected" (not (Serve.answer_ok g memo q (List.hd rows :: rows)))
      end;
      check "foreign row rejected" (not (Serve.answer_ok g memo q ("1999999\t1999999" :: rows)));
      check "garbled row rejected" (not (Serve.answer_ok g memo q ("x" :: rows))))
    [ Serve.Edge_from k; Serve.Two_from k; Serve.Two_to (g.Serve.succ.(k).(0)) ];
  (* The two-hop answer agrees with evaluating the program. *)
  let e = Engine.create (Parser.parse_string Serve.program_text) in
  Engine.add_fact_run e "edge" (Serve.tuples_of g.Serve.edges);
  Pool.with_pool 1 (fun p -> Engine.run e p);
  let two = Engine.relation_list e "two" in
  let from_k = List.filter_map (fun t -> if t.(0) = k then Some t.(1) else None) two in
  check "two-hop expectation matches the engine"
    (Array.of_list (List.sort_uniq compare from_k) = Serve.expected g (Serve.Two_from k));
  (* Order-independent checksums see a dropped or changed tuple. *)
  let tuples = [ [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |] ] in
  let sum l = Util.set_checksum (fun f -> List.iter f l) in
  check "checksum is order independent" (sum tuples = sum (List.rev tuples));
  check "checksum sees a dropped tuple" (sum tuples <> sum (List.tl tuples));
  check "checksum sees a changed tuple" (sum tuples <> sum [ [| 1; 2 |]; [| 3; 4 |]; [| 5; 7 |] ]);
  (* Seeds relabel a fixed structure: same degrees, different ids. *)
  let g2 = Serve.graph ~seed:8 ~nodes:2000 in
  let degrees g = List.sort compare (Array.to_list (Array.map Array.length g.Serve.succ)) in
  check "relabelled graph keeps its degrees" (degrees g = degrees g2);
  check "relabelled graph has other ids" (g.Serve.edges <> g2.Serve.edges);
  (* The points-to relabelling is an isomorphism: same sizes on any seed. *)
  let a = Evalwl.gen ~seed:1 and b = Evalwl.gen ~seed:2 in
  check "relabelled inputs differ" (a.Evalwl.facts <> b.Evalwl.facts);
  check "relabelled relation sizes agree"
    (List.map (fun (r, t) -> (r, Array.length t)) a.Evalwl.facts
    = List.map (fun (r, t) -> (r, Array.length t)) b.Evalwl.facts);
  (* Statistics. *)
  check "quantile interpolates" (Util.quantile [| 1.; 2.; 3.; 4. |] 0.5 = 2.5);
  let b = Telemetry.Hist.bucket_of_value 1000 in
  let lo, hi = Telemetry.Hist.bucket_bounds b in
  let q = Layers.bucket_quantile [ (b, 4) ] 0.5 in
  check "bucket quantile stays in its bucket" (q >= float_of_int lo && q <= float_of_int hi);
  let s = 1_000_000_000 in
  check "windowed rate drops the partial window"
    (Util.windowed_rate ~start:0 ~window_ns:s [ 1; 2; s + 1; s + 2; (2 * s) + 1 ] = 2.);
  if !failures > 0 then begin
    Printf.printf "%d selftest failures\n" !failures;
    exit 1
  end;
  print_endline "perfbench selftest: ok"
