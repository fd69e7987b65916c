type kind = Btree | Btree_nohints | Rbtree | Hashset | Bplus | Tbb_hash

let all_kinds = [ Btree; Btree_nohints; Rbtree; Hashset; Bplus; Tbb_hash ]

(* The total column order of an index: the listed columns (a signature
   or a shared chain order), then the remaining columns of an
   [arity]-tuple in ascending position. *)
let total_order ~arity listed =
  let seen = Array.make (max 1 arity) false in
  Array.iter (fun c -> seen.(c) <- true) listed;
  Array.append listed
    (Array.of_list (List.filter (fun p -> not seen.(p)) (List.init arity Fun.id)))

(* Key module comparing int-array tuples in a total column [order].  The
   comparator is specialised for the common arities: without cross-module
   inlining every K.compare call is indirect, so shaving the
   permutation-array loop measurably speeds up all tree-backed indexes. *)
let ordered_key order : (module Key.ORDERED with type t = int array) =
  let cmp2 p0 p1 a b =
    let x = Array.unsafe_get a p0 and y = Array.unsafe_get b p0 in
    if x < y then -1
    else if x > y then 1
    else
      let x = Array.unsafe_get a p1 and y = Array.unsafe_get b p1 in
      if x < y then -1 else if x > y then 1 else 0
  in
  let cmp3 p0 p1 p2 a b =
    let x = Array.unsafe_get a p0 and y = Array.unsafe_get b p0 in
    if x < y then -1
    else if x > y then 1
    else
      let x = Array.unsafe_get a p1 and y = Array.unsafe_get b p1 in
      if x < y then -1
      else if x > y then 1
      else
        let x = Array.unsafe_get a p2 and y = Array.unsafe_get b p2 in
        if x < y then -1 else if x > y then 1 else 0
  in
  let generic a b =
    let n = Array.length order in
    let rec go i =
      if i = n then 0
      else
        let p = Array.unsafe_get order i in
        let x = Array.unsafe_get a p and y = Array.unsafe_get b p in
        if x < y then -1 else if x > y then 1 else go (i + 1)
    in
    go 0
  in
  let compare =
    match order with
    | [| p0 |] ->
      fun a b ->
        let x = Array.unsafe_get a p0 and y = Array.unsafe_get b p0 in
        Int.compare x y
    | [| p0; p1 |] -> cmp2 p0 p1
    | [| p0; p1; p2 |] -> cmp3 p0 p1 p2
    | _ -> generic
  in
  (module struct
    type t = int array

    let compare = compare
    let dummy = [||]
    let to_string = Key.Int_array.to_string
  end)

let matches ~cols bound (tuple : int array) =
  let n = Array.length cols in
  let rec go i =
    i = n || (tuple.(cols.(i)) = bound.(i) && go (i + 1))
  in
  go 0

module Index = struct
  type cursor = {
    c_insert : int array -> bool;
    c_mem : int array -> bool;
    c_scan : cols:int array -> int array -> (int array -> unit) -> unit;
    c_release : unit -> unit;
  }

  type t = {
    i_insert : int array -> bool;
    i_merge : Pool.t option -> int array array -> int;
        (* unsorted tuples: sort a private copy in index order, then batch
           insert — partitioned across the pool for concurrent kinds *)
    i_mem : int array -> bool;
    i_iter : (int array -> unit) -> unit;
    i_cardinal : unit -> int;
    i_is_empty : unit -> bool;
    i_cursor : unit -> cursor;
    i_hint_counters : unit -> (int * int) option;
    i_shape : unit -> Tree_shape.t option; (* B-tree kinds only *)
    i_hint_runs : unit -> int array option; (* hinted B-tree kinds only *)
  }

  (* Below this many tuples a parallel merge costs more in pool fork-join
     than the insert work it spreads. *)
  let merge_parallel_cutoff = 1024

  (* [tuples] itself when already non-decreasing in [compare]'s order (the
     common case for loader shards and pre-sorted deltas — one linear scan
     beats a redundant heapsort), else a sorted private copy. *)
  let sorted_run ~compare tuples =
    let n = Array.length tuples in
    let i = ref 1 in
    while !i < n && compare tuples.(!i - 1) tuples.(!i) <= 0 do incr i done;
    if !i >= n then tuples
    else begin
      let run = Array.copy tuples in
      Array.sort compare run;
      run
    end

  (* Serial fallback shared by the kinds without a native batch path: sort
     in the structure's own order, then loop. *)
  let sort_and_count ~compare ~insert tuples =
    let run = sorted_run ~compare tuples in
    let fresh = ref 0 in
    Array.iter (fun tup -> if insert tup then incr fresh) run;
    !fresh

  (* element-wise sum of equal-length hint-run histograms *)
  let merge_runs a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Array.mapi (fun i v -> v + b.(i)) a)

  let count c = Sync.Counter.incr c

  let count_scan stats ncols =
    match stats with
    | Some s when ncols > 0 ->
      count s.Dl_stats.lower_bounds;
      count s.Dl_stats.upper_bounds
    | _ -> ()

  let count_mem stats =
    match stats with Some s -> count s.Dl_stats.mem_tests | None -> ()

  (* ---------------- ordered kinds ---------------- *)

  let make_btree ~hints ~arity ~cols ~order ~stats =
    (* specialized tuple tree: inlined comparator; the comparison order is
       either cols-major or an explicit shared-chain order *)
    let order = total_order ~arity (Option.value order ~default:cols) in
    let tree = Btree_tuples.create ~arity ~order () in
    (* Hint statistics for hit-rate reporting: the hints of every live
       cursor session, plus the totals folded in from every session
       released so far — O(1) per released cursor, so per-query reader
       handles do not grow the index's memory. *)
    let live = ref [] in
    let folded_hits = ref 0 and folded_misses = ref 0 in
    let folded_runs = ref None in
    let registry_lock = Olock.Spin.create () in
    let scan session scratch ~cols bound f =
      count_scan stats (Array.length cols);
      if Array.length cols = 0 then Btree_tuples.iter f tree
      else begin
        Array.fill scratch 0 arity min_int;
        Array.iteri (fun i c -> scratch.(c) <- bound.(i)) cols;
        let keep tup =
          if matches ~cols bound tup then begin
            f tup;
            true
          end
          else false
        in
        if hints then Btree_tuples.s_iter_from keep (session ()) scratch
        else Btree_tuples.iter_from keep tree scratch
      end
    in
    let cursor () =
      (* each cursor is a per-domain access handle, so it owns a session
         (the hinted path), created on the cursor's first hinted
         operation; the no-hints ablation kind uses the raw unhinted
         operations instead *)
      let sess = ref None in
      let session () =
        match !sess with
        | Some s -> s
        | None ->
          let s = Btree_tuples.session tree in
          Olock.Spin.with_lock registry_lock (fun () ->
              live := Btree_tuples.s_hints s :: !live);
          sess := Some s;
          s
      in
      let release () =
        match !sess with
        | None -> ()
        | Some s ->
          sess := None;
          let h = Btree_tuples.s_hints s in
          let hits, misses = Btree_tuples.hint_counters h in
          let runs = Some (Btree_tuples.hint_run_hist h) in
          Olock.Spin.with_lock registry_lock (fun () ->
              live := List.filter (fun h' -> h' != h) !live;
              folded_hits := !folded_hits + hits;
              folded_misses := !folded_misses + misses;
              folded_runs := merge_runs !folded_runs runs)
      in
      let scratch = Array.make (max 1 arity) 0 in
      {
        c_insert =
          (fun tup ->
            if hints then Btree_tuples.s_insert (session ()) tup
            else Btree_tuples.insert tree tup);
        c_mem =
          (fun tup ->
            count_mem stats;
            if hints then Btree_tuples.s_mem (session ()) tup
            else Btree_tuples.mem tree tup);
        c_scan = (fun ~cols bound f -> scan session scratch ~cols bound f);
        c_release = release;
      }
    in
    (* Parallel structural merge (delta -> full): sort the incoming tuples
       in this index's order, partition the run by the full tree's internal
       separators so every partition descends into a disjoint region, and
       batch-insert the partitions on the pool with per-partition hints. *)
    let merge pool tuples =
      let n = Array.length tuples in
      if n = 0 then 0
      else begin
        let cmp = Btree_tuples.compare_tuples tree in
        let run = sorted_run ~compare:cmp tuples in
        match pool with
        | Some p when Pool.size p > 1 && n >= merge_parallel_cutoff ->
          let seps =
            Btree_tuples.separators tree ~limit:((Pool.size p * 4) - 1)
          in
          let nseps = Array.length seps in
          let bounds = Array.make (nseps + 2) 0 in
          bounds.(nseps + 1) <- n;
          for s = 0 to nseps - 1 do
            (* first run index >= seps.(s); searches start at the previous
               boundary, so the bounds stay non-decreasing *)
            let lo = ref bounds.(s) and hi = ref n in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if cmp run.(mid) seps.(s) < 0 then lo := mid + 1 else hi := mid
            done;
            bounds.(s + 1) <- !lo
          done;
          let fresh = Sync.Counter.make 0 in
          (* one session per worker, reused across every partition the
             worker steals (chunk 1: partitions are coarse units already) *)
          let wsess =
            Array.init (Pool.size p) (fun _ -> Btree_tuples.session tree)
          in
          Pool.parallel_for_workers ~label:"merge" ~chunk:1 p 0 (nseps + 1)
            (fun w part ->
              let lo = bounds.(part) and hi = bounds.(part + 1) in
              if hi > lo then begin
                let f =
                  Btree_tuples.s_insert_batch ~pos:lo ~len:(hi - lo)
                    wsess.(w) run
                in
                Sync.Counter.add fresh f
              end);
          Sync.Counter.get fresh
        | _ -> Btree_tuples.insert_batch tree run
      end
    in
    {
      i_insert = (fun tup -> Btree_tuples.insert tree tup);
      i_merge = merge;
      i_mem = (fun tup -> Btree_tuples.mem tree tup);
      i_iter = (fun f -> Btree_tuples.iter f tree);
      i_cardinal = (fun () -> Btree_tuples.cardinal tree);
      i_is_empty = (fun () -> Btree_tuples.is_empty tree);
      i_cursor = cursor;
      i_hint_counters =
        (fun () ->
          if not hints then None
          else
            Olock.Spin.with_lock registry_lock (fun () ->
                Some
                  (List.fold_left
                     (fun (h, m) hr ->
                       let h', m' = Btree_tuples.hint_counters hr in
                       (h + h', m + m'))
                     (!folded_hits, !folded_misses)
                     !live)));
      i_shape = (fun () -> Some (Btree_tuples.shape tree));
      i_hint_runs =
        (fun () ->
          if not hints then None
          else
            Olock.Spin.with_lock registry_lock (fun () ->
                List.fold_left
                  (fun acc hr ->
                    merge_runs acc (Some (Btree_tuples.hint_run_hist hr)))
                  !folded_runs !live));
    }

  (* What an index needs of a sequential ordered baseline tree. *)
  module type SEQ_TREE = sig
    type t

    val insert : t -> int array -> bool
    val mem : t -> int array -> bool
    val iter : (int array -> unit) -> t -> unit
    val iter_from : (int array -> bool) -> t -> int array -> unit
    val cardinal : t -> int
    val is_empty : t -> bool
  end

  (* The thread-unsafe ordered baselines ("rbtset", "google btree"): one
     index over [tree], which orders tuples by [compare]. *)
  let make_seq_tree (type tree) (module T : SEQ_TREE with type t = tree)
      (tree : tree) ~compare ~arity ~stats =
    let scan scratch ~cols bound f =
      count_scan stats (Array.length cols);
      if Array.length cols = 0 then T.iter f tree
      else begin
        Array.fill scratch 0 arity min_int;
        Array.iteri (fun i c -> scratch.(c) <- bound.(i)) cols;
        T.iter_from
          (fun tup ->
            if matches ~cols bound tup then begin
              f tup;
              true
            end
            else false)
          tree scratch
      end
    in
    let cursor () =
      let scratch = Array.make (max 1 arity) 0 in
      {
        c_insert = (fun tup -> T.insert tree tup);
        c_mem =
          (fun tup ->
            count_mem stats;
            T.mem tree tup);
        c_scan = scan scratch;
        c_release = ignore;
      }
    in
    {
      i_insert = (fun tup -> T.insert tree tup);
      i_merge =
        (fun _pool tuples ->
          (* not thread-safe: always a serial sorted loop *)
          sort_and_count ~compare ~insert:(T.insert tree) tuples);
      i_mem = (fun tup -> T.mem tree tup);
      i_iter = (fun f -> T.iter f tree);
      i_cardinal = (fun () -> T.cardinal tree);
      i_is_empty = (fun () -> T.is_empty tree);
      i_cursor = cursor;
      i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
    }

  let seq_key ~arity ~cols ~order =
    ordered_key (total_order ~arity (Option.value order ~default:cols))

  let make_rbtree ~arity ~cols ~order ~stats =
    let module K = (val seq_key ~arity ~cols ~order) in
    let module T = Rbtree.Make (K) in
    make_seq_tree (module T) (T.create ()) ~compare:K.compare ~arity ~stats

  let make_bplus ~arity ~cols ~order ~stats =
    let module K = (val seq_key ~arity ~cols ~order) in
    let module T = Bplus_tree.Make (K) in
    make_seq_tree (module T) (T.create ()) ~compare:K.compare ~arity ~stats

  (* ---------------- hash kinds ---------------- *)

  module Tuple_hashed = struct
    type t = int array

    let equal = Key.Int_array.equal
    let hash = Key.Int_array.hash
  end

  module Tuple_tbl = Hashtbl.Make (Tuple_hashed)

  (* sequential hash index: primary = hash set of tuples; secondary = hash
     multimap from bound values to tuples *)
  let make_hashset ~arity:_ ~cols ~stats =
    let ncols = Array.length cols in
    if ncols = 0 then begin
      let module H = Hashset.Make (Key.Int_array) in
      let set = H.create () in
      let cursor () =
        {
          c_insert = (fun tup -> H.insert set tup);
          c_mem =
            (fun tup ->
              count_mem stats;
              H.mem set tup);
          c_scan =
            (fun ~cols:_ _bound f ->
              count_scan stats ncols;
              H.iter f set);
          c_release = ignore;
        }
      in
      {
        i_insert = (fun tup -> H.insert set tup);
        i_merge =
          (fun _pool tuples ->
            let fresh = ref 0 in
            Array.iter (fun tup -> if H.insert set tup then incr fresh) tuples;
            !fresh);
        i_mem = (fun tup -> H.mem set tup);
        i_iter = (fun f -> H.iter f set);
        i_cardinal = (fun () -> H.cardinal set);
        i_is_empty = (fun () -> H.cardinal set = 0);
        i_cursor = cursor;
        i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
      }
    end
    else begin
      let tbl : int array list ref Tuple_tbl.t = Tuple_tbl.create 1024 in
      let key_of tup = Array.map (fun c -> tup.(c)) cols in
      let insert tup =
        let k = key_of tup in
        (match Tuple_tbl.find_opt tbl k with
        | Some bucket -> bucket := tup :: !bucket
        | None -> Tuple_tbl.add tbl k (ref [ tup ]));
        true
      in
      let scan ~cols:_ bound f =
        count_scan stats ncols;
        match Tuple_tbl.find_opt tbl bound with
        | Some bucket -> List.iter f !bucket
        | None -> ()
      in
      let iter f = Tuple_tbl.iter (fun _ bucket -> List.iter f !bucket) tbl in
      let cursor () =
        {
          c_insert = insert;
          c_mem =
            (fun tup ->
              count_mem stats;
              match Tuple_tbl.find_opt tbl (key_of tup) with
              | Some bucket -> List.exists (Key.Int_array.equal tup) !bucket
              | None -> false);
          c_scan = scan;
          c_release = ignore;
        }
      in
      let insert_many run =
        (* multimap: every insert lands, so freshness is the tuple count *)
        Array.iter (fun tup -> ignore (insert tup : bool)) run;
        Array.length run
      in
      {
        i_insert = insert;
        i_merge = (fun _pool tuples -> insert_many tuples);
        i_mem =
          (fun tup ->
            match Tuple_tbl.find_opt tbl (key_of tup) with
            | Some bucket -> List.exists (Key.Int_array.equal tup) !bucket
            | None -> false);
        i_iter = iter;
        i_cardinal =
          (fun () -> Tuple_tbl.fold (fun _ b acc -> acc + List.length !b) tbl 0);
        i_is_empty = (fun () -> Tuple_tbl.length tbl = 0);
        i_cursor = cursor;
        i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
      }
    end

  (* concurrent hash index: primary = lock-striped hash set; secondary =
     lock-striped hash multimap *)
  let make_tbb ~arity:_ ~cols ~stats =
    let ncols = Array.length cols in
    if ncols = 0 then begin
      let module H = Concurrent_hashset.Make (Key.Int_array) in
      let set = H.create () in
      let cursor () =
        {
          c_insert = (fun tup -> H.insert set tup);
          c_mem =
            (fun tup ->
              count_mem stats;
              H.mem set tup);
          c_scan =
            (fun ~cols:_ _bound f ->
              count_scan stats ncols;
              H.iter f set);
          c_release = ignore;
        }
      in
      let merge pool tuples =
        let n = Array.length tuples in
        match pool with
        | Some p when Pool.size p > 1 && n >= merge_parallel_cutoff ->
          (* inserts are thread-safe; no order to exploit, just spread *)
          let fresh = Sync.Counter.make 0 in
          Pool.parallel_for_ranges ~label:"merge" p 0 n (fun _w lo hi ->
              let f = ref 0 in
              for i = lo to hi - 1 do
                if H.insert set tuples.(i) then incr f
              done;
              Sync.Counter.add fresh !f);
          Sync.Counter.get fresh
        | _ ->
          let fresh = ref 0 in
          Array.iter (fun tup -> if H.insert set tup then incr fresh) tuples;
          !fresh
      in
      {
        i_insert = (fun tup -> H.insert set tup);
        i_merge = merge;
        i_mem = (fun tup -> H.mem set tup);
        i_iter = (fun f -> H.iter f set);
        i_cardinal = (fun () -> H.cardinal set);
        i_is_empty = (fun () -> H.cardinal set = 0);
        i_cursor = cursor;
        i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
      }
    end
    else begin
      let nstripes = 64 in
      let stripes =
        Array.init nstripes (fun _ ->
            (Olock.Spin.create (), Tuple_tbl.create 64))
      in
      let key_of tup = Array.map (fun c -> tup.(c)) cols in
      let stripe_of k = Tuple_hashed.hash k land (nstripes - 1) in
      let insert tup =
        let k = key_of tup in
        let lock, tbl = stripes.(stripe_of k) in
        Olock.Spin.with_lock lock (fun () ->
            match Tuple_tbl.find_opt tbl k with
            | Some bucket -> bucket := tup :: !bucket
            | None -> Tuple_tbl.add tbl k (ref [ tup ]));
        true
      in
      let scan ~cols:_ bound f =
        count_scan stats ncols;
        let _, tbl = stripes.(stripe_of bound) in
        match Tuple_tbl.find_opt tbl bound with
        | Some bucket -> List.iter f !bucket
        | None -> ()
      in
      let mem tup =
        let k = key_of tup in
        let _, tbl = stripes.(stripe_of k) in
        match Tuple_tbl.find_opt tbl k with
        | Some bucket -> List.exists (Key.Int_array.equal tup) !bucket
        | None -> false
      in
      let iter f =
        Array.iter
          (fun (_, tbl) -> Tuple_tbl.iter (fun _ b -> List.iter f !b) tbl)
          stripes
      in
      let cursor () =
        {
          c_insert = insert;
          c_mem =
            (fun tup ->
              count_mem stats;
              mem tup);
          c_scan = scan;
          c_release = ignore;
        }
      in
      let insert_many run =
        Array.iter (fun tup -> ignore (insert tup : bool)) run;
        Array.length run
      in
      let merge pool tuples =
        let n = Array.length tuples in
        match pool with
        | Some p when Pool.size p > 1 && n >= merge_parallel_cutoff ->
          Pool.parallel_for_ranges ~label:"merge" p 0 n (fun _w lo hi ->
              for i = lo to hi - 1 do
                ignore (insert tuples.(i) : bool)
              done);
          n
        | _ -> insert_many tuples
      in
      {
        i_insert = insert;
        i_merge = merge;
        i_mem = mem;
        i_iter = iter;
        i_cardinal =
          (fun () ->
            Array.fold_left
              (fun acc (_, tbl) ->
                Tuple_tbl.fold (fun _ b acc -> acc + List.length !b) tbl acc)
              0 stripes);
        i_is_empty =
          (fun () ->
            Array.for_all (fun (_, tbl) -> Tuple_tbl.length tbl = 0) stripes);
        i_cursor = cursor;
        i_hint_counters = (fun () -> None);
      i_shape = (fun () -> None);
      i_hint_runs = (fun () -> None);
      }
    end

  (* ---------------- backend dispatch table ---------------- *)

  (* One first-class module per storage kind: its naming, concurrency
     capabilities, and index factory.  Every per-kind decision in the
     storage layer and above (naming, write locking, index sharing, index
     construction) routes through this table instead of scattered
     matches. *)
  module type BACKEND = sig
    val kind : kind

    val name : string
    (** Display name, as used in the paper's figures. *)

    val aliases : string list
    (** Lower-case spellings accepted by {!kind_of_name} (including the
        display name). *)

    val thread_safe_insert : bool
    val shares_indexes : bool

    val make :
      arity:int ->
      cols:int array ->
      order:int array option ->
      stats:Dl_stats.t option ->
      t
  end

  let backends : (module BACKEND) list =
    [
      (module struct
        let kind = Btree
        let name = "btree"
        let aliases = [ "btree" ]
        let thread_safe_insert = true
        let shares_indexes = true
        let make = make_btree ~hints:true
      end);
      (module struct
        let kind = Btree_nohints
        let name = "btree (n/h)"
        let aliases = [ "btree-nohints"; "btree (n/h)"; "btree_nohints" ]
        let thread_safe_insert = true
        let shares_indexes = true
        let make = make_btree ~hints:false
      end);
      (module struct
        let kind = Rbtree
        let name = "rbtset"
        let aliases = [ "rbtree"; "rbtset" ]
        let thread_safe_insert = false
        let shares_indexes = true
        let make = make_rbtree
      end);
      (module struct
        let kind = Hashset
        let name = "hashset"
        let aliases = [ "hashset" ]
        let thread_safe_insert = false
        let shares_indexes = false
        let make ~arity ~cols ~order:_ ~stats = make_hashset ~arity ~cols ~stats
      end);
      (module struct
        let kind = Bplus
        let name = "google btree"
        let aliases = [ "bplus"; "google"; "google btree" ]
        let thread_safe_insert = false
        let shares_indexes = true
        let make = make_bplus
      end);
      (module struct
        let kind = Tbb_hash
        let name = "tbb hashset"
        let aliases = [ "tbb"; "tbb hashset"; "tbb_hash" ]
        let thread_safe_insert = true
        let shares_indexes = false
        let make ~arity ~cols ~order:_ ~stats = make_tbb ~arity ~cols ~stats
      end);
    ]

  let backend k =
    List.find (fun (module B : BACKEND) -> B.kind = k) backends

  let create kind ~arity ~cols ?order ~stats () =
    (match cols with
    | [||] -> ()
    | _ ->
      let ok = ref true in
      for i = 1 to Array.length cols - 1 do
        if cols.(i - 1) >= cols.(i) then ok := false
      done;
      Array.iter (fun c -> if c < 0 || c >= arity then ok := false) cols;
      if not !ok then invalid_arg "Storage.Index.create: bad signature");
    (match order with
    | None -> ()
    | Some o ->
      let seen = Array.make (max 1 arity) false in
      Array.iter
        (fun c ->
          if c < 0 || c >= arity || seen.(c) then
            invalid_arg "Storage.Index.create: bad order";
          seen.(c) <- true)
        o;
      (* cols must be a prefix set of the order *)
      let prefix = Array.sub o 0 (min (Array.length o) (Array.length cols)) in
      let sp = List.sort Int.compare (Array.to_list prefix) in
      if Array.length cols > Array.length o || sp <> Array.to_list cols then
        invalid_arg "Storage.Index.create: cols not a prefix set of order");
    let (module B) = backend kind in
    B.make ~arity ~cols ~order ~stats

  let hint_counters t = t.i_hint_counters ()
  let shape t = t.i_shape ()
  let hint_runs t = t.i_hint_runs ()
  let is_empty t = t.i_is_empty ()
  exception Phase_violation of string

  (* Readers and writers counted in one latch word (see
     [Sync.Phase_latch]) — the read+write overlap check is a single
     atomic read-modify-write with no window. *)
  let with_phase_check ~name t =
    let latch = Sync.Phase_latch.make () in
    let enter phase what =
      if not (Sync.Phase_latch.try_enter latch phase) then
        raise
          (Phase_violation
             (Printf.sprintf "%s: concurrent %s during the opposite phase"
                name what))
    in
    let as_reader f =
      enter Sync.Phase_latch.Read "read";
      match f () with
      | r ->
        Sync.Phase_latch.leave latch Sync.Phase_latch.Read;
        r
      | exception e ->
        Sync.Phase_latch.leave latch Sync.Phase_latch.Read;
        raise e
    in
    let as_writer f =
      enter Sync.Phase_latch.Write "write";
      match f () with
      | r ->
        Sync.Phase_latch.leave latch Sync.Phase_latch.Write;
        r
      | exception e ->
        Sync.Phase_latch.leave latch Sync.Phase_latch.Write;
        raise e
    in
    let wrap_cursor c =
      {
        c_insert = (fun tup -> as_writer (fun () -> c.c_insert tup));
        c_mem = (fun tup -> as_reader (fun () -> c.c_mem tup));
        c_scan = (fun ~cols bound f -> as_reader (fun () -> c.c_scan ~cols bound f));
        c_release = c.c_release;
      }
    in
    {
      i_insert = (fun tup -> as_writer (fun () -> t.i_insert tup));
      i_merge = (fun pool tuples -> as_writer (fun () -> t.i_merge pool tuples));
      i_mem = (fun tup -> as_reader (fun () -> t.i_mem tup));
      i_iter = (fun f -> as_reader (fun () -> t.i_iter f));
      i_cardinal = t.i_cardinal;
      i_is_empty = t.i_is_empty;
      i_cursor = (fun () -> wrap_cursor (t.i_cursor ()));
      i_hint_counters = t.i_hint_counters;
      i_shape = t.i_shape;
      i_hint_runs = t.i_hint_runs;
    }

  let insert t tup = t.i_insert tup
  let merge ?pool t tuples = t.i_merge pool tuples
  let mem t tup = t.i_mem tup
  let iter t f = t.i_iter f
  let cardinal t = t.i_cardinal ()
  let cursor t = t.i_cursor ()
  let c_insert c tup = c.c_insert tup
  let c_mem c tup = c.c_mem tup
  let c_scan c ~cols bound f = c.c_scan ~cols bound f
  let c_release c = c.c_release ()
end

(* Kind metadata, all answered by the backend table. *)
let kind_name k =
  let (module B : Index.BACKEND) = Index.backend k in
  B.name

let thread_safe_insert k =
  let (module B : Index.BACKEND) = Index.backend k in
  B.thread_safe_insert

let shares_indexes k =
  let (module B : Index.BACKEND) = Index.backend k in
  B.shares_indexes

let kind_of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_map
    (fun (module B : Index.BACKEND) ->
      if List.mem s B.aliases then Some B.kind else None)
    Index.backends
