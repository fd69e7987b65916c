(* Tests for the sequential B-tree variant, including cross-checks against
   the concurrent tree (they must be observationally identical). *)

module S = Btree.Seq (Key.Int)
module C = Btree.Make (Key.Int)
module ISet = Set.Make (Int)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_ilist = Alcotest.(check (list int))
let int_opt = Alcotest.(option int)

let rng seed =
  let s = ref (Key.mix64 (seed + 1)) in
  fun bound ->
    s := Key.mix64 (!s + 0x2545F4914F6CDD1D);
    !s mod bound

let test_empty () =
  let t = S.create () in
  check_bool "is_empty" true (S.is_empty t);
  check_int "cardinal" 0 (S.cardinal t);
  check_bool "mem" false (S.mem t 1);
  S.check_invariants t

let test_ordered () =
  let t = S.create ~capacity:4 () in
  for i = 0 to 9999 do
    check_bool "fresh" true (S.insert t i)
  done;
  check_int "cardinal" 10_000 (S.cardinal t);
  S.check_invariants t;
  for i = 0 to 9999 do
    if not (S.mem t i) then Alcotest.failf "lost %d" i
  done

let test_random_vs_model () =
  let r = rng 1 in
  let t = S.create ~capacity:5 () in
  let model = ref ISet.empty in
  for _ = 1 to 20_000 do
    let k = r 8000 in
    check_bool "insert matches model" (not (ISet.mem k !model)) (S.insert t k);
    model := ISet.add k !model
  done;
  check_ilist "contents" (ISet.elements !model) (S.to_list t);
  S.check_invariants t

let test_hinted_ordered_insert_hits () =
  let t = S.create ~capacity:8 () in
  let h = S.session t in
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore (S.s_insert h i : bool)
  done;
  S.check_invariants t;
  check_int "cardinal" n (S.cardinal t);
  let s = S.hint_stats (S.s_hints h) in
  check_bool "hints dominate on ordered stream" true (s.S.insert_hits > (9 * n) / 10)

let test_hinted_random_vs_model () =
  let r = rng 2 in
  let t = S.create ~capacity:6 () in
  let h = S.session t in
  let model = ref ISet.empty in
  for _ = 1 to 10_000 do
    let k = r 50_000 in
    check_bool "hinted insert matches model"
      (not (ISet.mem k !model))
      (S.s_insert h k);
    model := ISet.add k !model
  done;
  check_ilist "hinted contents" (ISet.elements !model) (S.to_list t);
  S.check_invariants t;
  (* hinted queries *)
  let model_lb k = ISet.find_first_opt (fun x -> x >= k) !model in
  let model_ub k = ISet.find_first_opt (fun x -> x > k) !model in
  for _ = 1 to 2000 do
    let p = r 50_000 in
    Alcotest.check int_opt "lb" (model_lb p) (S.s_lower_bound h p);
    Alcotest.check int_opt "ub" (model_ub p) (S.s_upper_bound h p);
    check_bool "mem" (ISet.mem p !model) (S.s_mem h p)
  done

let test_bounds () =
  let t = S.create ~capacity:4 () in
  List.iter (fun k -> ignore (S.insert t k : bool)) [ 10; 20; 30; 40; 50 ];
  Alcotest.check int_opt "lb exact" (Some 30) (S.lower_bound t 30);
  Alcotest.check int_opt "lb between" (Some 30) (S.lower_bound t 21);
  Alcotest.check int_opt "lb below" (Some 10) (S.lower_bound t (-5));
  Alcotest.check int_opt "lb above" None (S.lower_bound t 51);
  Alcotest.check int_opt "ub exact" (Some 40) (S.upper_bound t 30);
  Alcotest.check int_opt "ub max" None (S.upper_bound t 50)

let test_iter_from () =
  let t = S.create ~capacity:4 () in
  for i = 0 to 99 do
    ignore (S.insert t (i * 2) : bool)
  done;
  let seen = ref [] in
  S.iter_from
    (fun k ->
      if k <= 60 then (seen := k :: !seen; true) else false)
    t 41;
  check_ilist "range" [ 42; 44; 46; 48; 50; 52; 54; 56; 58; 60 ] (List.rev !seen)

let test_bulk_build () =
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i * 7) in
      let t = S.of_sorted_array ~capacity:5 arr in
      S.check_invariants t;
      check_int "bulk cardinal" n (S.cardinal t);
      ignore (S.insert t 3 : bool);
      S.check_invariants t)
    [ 0; 1; 4; 5; 6; 30; 99; 1000 ]

let test_insert_all () =
  let a = S.create () and b = S.create () in
  List.iter (fun k -> ignore (S.insert a k : bool)) (List.init 100 (fun i -> 2 * i));
  List.iter (fun k -> ignore (S.insert b k : bool)) (List.init 100 (fun i -> (2 * i) + 1));
  S.insert_all a b;
  check_int "merged" 200 (S.cardinal a);
  S.check_invariants a

(* qcheck: sequential and concurrent trees agree operation by operation *)
let prop_seq_eq_concurrent =
  QCheck.Test.make ~count:200 ~name:"seq = concurrent (insert/mem)"
    QCheck.(pair (list (int_bound 300)) (small_list (int_bound 320)))
    (fun (ins, probes) ->
      let s = S.create ~capacity:4 () in
      let c = C.create ~capacity:4 () in
      let agree_ins =
        List.for_all (fun k -> S.insert s k = C.insert c k) ins
      in
      let agree_probe =
        List.for_all
          (fun p ->
            S.mem s p = C.mem c p
            && S.lower_bound s p = C.lower_bound c p
            && S.upper_bound s p = C.upper_bound c p)
          probes
      in
      agree_ins && agree_probe && S.to_list s = C.to_list c)

let prop_hinted_model =
  QCheck.Test.make ~count:200 ~name:"hinted seq tree = model"
    QCheck.(list (int_bound 100))
    (fun keys ->
      let t = S.create ~capacity:4 () in
      let h = S.session t in
      List.iter (fun k -> ignore (S.s_insert h k : bool)) keys;
      S.check_invariants t;
      S.to_list t = ISet.elements (ISet.of_list keys))

let prop_bulk_matches =
  QCheck.Test.make ~count:200 ~name:"of_sorted_array = inserts"
    QCheck.(list_of_size Gen.(0 -- 500) (int_bound 10_000))
    (fun keys ->
      let uniq = Array.of_list (ISet.elements (ISet.of_list keys)) in
      let a = S.of_sorted_array ~capacity:6 uniq in
      let b = S.create ~capacity:6 () in
      Array.iter (fun k -> ignore (S.insert b k : bool)) uniq;
      S.check_invariants a;
      S.to_list a = S.to_list b)

let prop_batch_eq_concurrent_batch =
  (* sequential batch = concurrent batch = one-by-one *)
  QCheck.Test.make ~count:200 ~name:"insert_batch = concurrent insert_batch"
    QCheck.(list (int_bound 2000))
    (fun keys ->
      let run = Array.of_list (ISet.elements (ISet.of_list keys)) in
      let s = S.create ~capacity:4 () in
      let fs = S.insert_batch s run in
      S.check_invariants s;
      let c = C.create ~capacity:4 () in
      let fc = C.insert_batch c run in
      C.check_invariants c;
      let serial = S.create ~capacity:4 () in
      Array.iter (fun k -> ignore (S.insert serial k : bool)) run;
      fs = fc && S.to_list s = C.to_list c && S.to_list s = S.to_list serial)

let test_batch_rejects_unsorted () =
  let t = S.create () in
  Alcotest.check_raises "decreasing run"
    (Invalid_argument "Btree_seq.insert_batch: run not sorted") (fun () ->
      ignore (S.insert_batch t [| 3; 1 |] : int))

let test_session_batch () =
  let t = S.create ~capacity:4 () in
  let sess = S.session t in
  check_int "fresh" 100 (S.s_insert_batch sess (Array.init 100 Fun.id));
  check_int "replay" 0 (S.s_insert_batch sess (Array.init 100 Fun.id));
  check_bool "mem" true (S.s_mem sess 42);
  S.check_invariants t

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "btree_seq"
    [
      ( "basics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "ordered" `Quick test_ordered;
          Alcotest.test_case "random vs model" `Quick test_random_vs_model;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "iter_from" `Quick test_iter_from;
        ] );
      ( "hints",
        [
          Alcotest.test_case "ordered hits" `Quick test_hinted_ordered_insert_hits;
          Alcotest.test_case "random vs model" `Quick test_hinted_random_vs_model;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "of_sorted_array" `Quick test_bulk_build;
          Alcotest.test_case "insert_all" `Quick test_insert_all;
          Alcotest.test_case "batch rejects unsorted" `Quick
            test_batch_rejects_unsorted;
          Alcotest.test_case "session batch" `Quick test_session_batch;
        ] );
      qsuite "properties"
        [
          prop_seq_eq_concurrent;
          prop_hinted_model;
          prop_bulk_matches;
          prop_batch_eq_concurrent_batch;
        ];
    ]
