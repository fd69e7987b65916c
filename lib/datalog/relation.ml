type t = {
  name : string;
  arity : int;
  stats : Dl_stats.t option;
  write_lock : Mutex.t option; (* Some for kinds without thread-safe insert *)
  primary : Storage.Index.t;
  ordered : bool;
      (* tree kinds: every index is a set that scans any prefix of its
         range; a hash multimap answers only its whole signature and does
         not deduplicate *)
  primary_range : int array;
      (* the columns the primary range-scans on: [0..arity-1] for tree
         kinds, none for hash kinds (a hash set only enumerates) *)
  secondary : (int array * Storage.Index.t) array;
      (* signature -> serving index; entries may share indexes physically
         (chain cover, tree kinds only), the primary included *)
  distinct : (int array * Storage.Index.t) array;
      (* each physical secondary index once, with its range: its total
         column order (tree kinds) or its multimap signature (hash kinds) *)
  phase : Sync.Phase_latch.t;
      (* open typed phases: a reader/writer latch word (same packing as
         [Storage.Index.with_phase_check]) *)
}

let create ?(check_phases = false) ~name ~arity ~kind ~sigs ~stats () =
  let checked i idx =
    if check_phases then
      Storage.Index.with_phase_check
        ~name:(Printf.sprintf "%s[%d]" name i)
        idx
    else idx
  in
  let uniq =
    List.sort_uniq Key.Int_array.compare (List.filter (fun s -> Array.length s > 0) sigs)
  in
  let primary = checked 0 (Storage.Index.create kind ~arity ~cols:[||] ~stats ()) in
  let identity = Array.init arity Fun.id in
  let ordered = Storage.shares_indexes kind in
  let primary_range, secondary, distinct =
    if ordered then begin
      let plan = Index_selection.solve ~arity uniq in
      (* A chain whose total order is the primary's own ([0..arity-1])
         is served by the primary: a second tree in the same order would
         only double every insert. *)
      let made = ref [] in
      let serving =
        Array.of_list
          (List.map
             (fun order ->
               let range = Storage.total_order ~arity order in
               if range = identity then primary
               else begin
                 let idx =
                   checked
                     (List.length !made + 1)
                     (Storage.Index.create kind ~arity ~cols:[||] ~order ~stats ())
                 in
                 made := (range, idx) :: !made;
                 idx
               end)
             plan.Index_selection.orders)
      in
      ( identity,
        Array.of_list
          (List.map
             (fun (cols, chain) -> (cols, serving.(chain)))
             plan.Index_selection.assignment),
        Array.of_list (List.rev !made) )
    end
    else begin
      let entries =
        Array.of_list
          (List.mapi
             (fun i cols ->
               (cols, checked (i + 1) (Storage.Index.create kind ~arity ~cols ~stats ())))
             uniq)
      in
      ([||], entries, entries)
    end
  in
  {
    name;
    arity;
    stats;
    write_lock =
      (if Storage.thread_safe_insert kind then None else Some (Mutex.create ()));
    primary;
    ordered;
    primary_range;
    secondary;
    distinct;
    phase = Sync.Phase_latch.make ();
  }

let name t = t.name
let arity t = t.arity
let cardinal t = Storage.Index.cardinal t.primary
let is_empty t = Storage.Index.is_empty t.primary
let iter t f = Storage.Index.iter t.primary f
let mem t tup = Storage.Index.mem t.primary tup

let insert_unlocked t tup =
  let fresh = Storage.Index.insert t.primary tup in
  if fresh then
    Array.iter
      (fun (_, idx) -> ignore (Storage.Index.insert idx tup : bool))
      t.distinct;
  fresh

let insert t tup =
  match t.write_lock with
  | None -> insert_unlocked t tup
  | Some m -> Mutex.protect m (fun () -> insert_unlocked t tup)

let hint_counters t =
  let add acc idx =
    match (acc, Storage.Index.hint_counters idx) with
    | None, c -> c
    | Some (h, m), Some (h', m') -> Some (h + h', m + m')
    | Some _, None -> acc
  in
  Array.fold_left (fun acc (_, idx) -> add acc idx) (add None t.primary) t.distinct

let shape t = Storage.Index.shape t.primary

let hint_runs t =
  let add acc idx = Storage.Index.merge_runs acc (Storage.Index.hint_runs idx) in
  Array.fold_left (fun acc (_, idx) -> add acc idx) (add None t.primary) t.distinct

let index_count t = Array.length t.distinct

let sig_id t cols =
  let n = Array.length t.secondary in
  let rec go i =
    if i = n then raise Not_found
    else if fst t.secondary.(i) = cols then i
    else go (i + 1)
  in
  if Array.length cols = 0 then -1 else go 0

module Cursor = struct
  type rel = t

  type t = {
    rel : rel;
    c_primary : Storage.Index.cursor;
    c_distinct : Storage.Index.cursor array;
        (* one per distinct secondary index: inserts and queries *)
    c_scan : (int array * Storage.Index.cursor) array; (* one per signature *)
  }

  let create rel =
    {
      rel;
      c_primary = Storage.Index.cursor rel.primary;
      c_distinct =
        Array.map (fun (_, idx) -> Storage.Index.cursor idx) rel.distinct;
      c_scan =
        Array.map
          (fun (cols, idx) -> (cols, Storage.Index.cursor idx))
          rel.secondary;
    }

  let release c =
    Storage.Index.c_release c.c_primary;
    Array.iter Storage.Index.c_release c.c_distinct;
    Array.iter (fun (_, cur) -> Storage.Index.c_release cur) c.c_scan

  let count_insert c fresh =
    match c.rel.stats with
    | None -> ()
    | Some s ->
      Sync.Counter.incr s.Dl_stats.inserts;
      if fresh then Sync.Counter.incr s.Dl_stats.produced_tuples

  let insert_unlocked c tup =
    let fresh = Storage.Index.c_insert c.c_primary tup in
    if fresh then
      Array.iter
        (fun cur -> ignore (Storage.Index.c_insert cur tup : bool))
        c.c_distinct;
    fresh

  let insert c tup =
    let fresh =
      match c.rel.write_lock with
      | None -> insert_unlocked c tup
      | Some m -> Mutex.protect m (fun () -> insert_unlocked c tup)
    in
    count_insert c fresh;
    fresh

  let mem c tup = Storage.Index.c_mem c.c_primary tup

  let scan c sig_id bound f =
    if sig_id < 0 then Storage.Index.c_scan c.c_primary ~cols:[||] bound f
    else begin
      let cols, cur = c.c_scan.(sig_id) in
      Storage.Index.c_scan cur ~cols bound f
    end

  (* How many leading columns of [range] the pattern binds: the length of
     the range scan an index with that range can run.  On a hash
     multimap only the whole signature can be looked up, so a shorter
     bound prefix makes the index unusable (-1). *)
  let servable rel range pat =
    let n = Array.length range in
    let rec go i = if i < n && Option.is_some pat.(range.(i)) then go (i + 1) else i in
    let l = go 0 in
    if l < n && not rel.ordered then -1 else l

  let matches pat tup =
    let n = Array.length pat in
    let rec go i =
      i = n
      || (match pat.(i) with Some v -> tup.(i) = v | None -> true)
         && go (i + 1)
    in
    go 0

  (* The index-choosing lookup: the physical index whose range has the
     longest bound prefix serves the pattern with one range scan
     (lower_bound + in-order scan on the tree kinds), and any bound column
     past that prefix is checked inline.  The whole-relation scan is the
     empty-prefix case.  A fully bound pattern is one membership test. *)
  let query c pat f =
    let rel = c.rel in
    let nbound =
      Array.fold_left (fun n p -> if Option.is_some p then n + 1 else n) 0 pat
    in
    if nbound = rel.arity then begin
      let tup = Array.map Option.get pat in
      if mem c tup then f tup
    end
    else begin
      let best = ref (-1) in
      let len = ref (servable rel rel.primary_range pat) in
      Array.iteri
        (fun k (range, _) ->
          let l = servable rel range pat in
          if l > !len then begin
            best := k;
            len := l
          end)
        rel.distinct;
      let range, cur =
        if !best < 0 then (rel.primary_range, c.c_primary)
        else (fst rel.distinct.(!best), c.c_distinct.(!best))
      in
      let cols = Array.sub range 0 !len in
      let bound = Array.map (fun col -> Option.get pat.(col)) cols in
      if !len = nbound then Storage.Index.c_scan cur ~cols bound f
      else
        Storage.Index.c_scan cur ~cols bound (fun tup ->
            if matches pat tup then f tup)
    end
end

(* ---------------- batch merge ---------------- *)

let merge_batch ?pool t tuples =
  if Array.length tuples = 0 then 0
  else begin
    let do_merge () =
      if Array.length t.distinct = 0 then
        Storage.Index.merge ?pool t.primary tuples
      else if t.ordered then begin
        (* Tree kinds: every index is a dedup set, so each can merge the
           full array independently (sorting its own copy in its own
           order).  Skipping the primary-freshness gate is equivalent to
           the serial per-tuple path: a tuple already in the primary is
           already in every secondary. *)
        let fresh = Storage.Index.merge ?pool t.primary tuples in
        Array.iter
          (fun (_, idx) -> ignore (Storage.Index.merge ?pool idx tuples : int))
          t.distinct;
        fresh
      end
      else begin
        (* Hash kinds: secondaries are multimaps (no dedup), so only
           tuples fresh in the primary may reach them — gate per tuple
           like the serial path, spread on the pool when the kind takes
           concurrent inserts. *)
        match pool with
        | Some p
          when t.write_lock = None
               && Pool.size p > 1
               && Array.length tuples >= 1024 ->
          let fresh = Sync.Counter.make 0 in
          Pool.parallel_for_ranges ~label:"merge" p 0 (Array.length tuples)
            (fun _w lo hi ->
              let f = ref 0 in
              for i = lo to hi - 1 do
                if insert_unlocked t tuples.(i) then incr f
              done;
              Sync.Counter.add fresh !f);
          Sync.Counter.get fresh
        | _ ->
          let fresh = ref 0 in
          Array.iter
            (fun tup -> if insert_unlocked t tup then incr fresh)
            tuples;
          !fresh
      end
    in
    match t.write_lock with
    | None -> do_merge ()
    | Some m -> Mutex.protect m do_merge
  end

(* ---------------- typed two-phase access ---------------- *)

(* In every parallel region a relation is either written or read, never
   both — the contract the B-tree's synchronisation is specialised for.
   [begin_write]/[begin_read] make the phase explicit in the types (a
   Writer cannot scan, a Reader cannot insert) and detect overlap
   dynamically: both phases are counted in one atomic word, so an overlap
   check is a single fetch-and-add with no window. *)

let enter_phase t phase what =
  if not (Sync.Phase_latch.try_enter t.phase phase) then
    raise
      (Storage.Index.Phase_violation
         (Printf.sprintf "%s: begin_%s during an open %s phase" t.name what
            (if what = "write" then "read" else "write")))
  else
    Flight.record Flight.Ev.Phase
      (if phase = Sync.Phase_latch.Write then Flight.phase_write_enter
       else Flight.phase_read_enter)
      0 0

let leave_phase t phase closed =
  if !closed then invalid_arg "Relation: phase handle finished twice";
  closed := true;
  Sync.Phase_latch.leave t.phase phase;
  Flight.record Flight.Ev.Phase
    (if phase = Sync.Phase_latch.Write then Flight.phase_write_leave
     else Flight.phase_read_leave)
    0 0

(* A finished handle no longer holds its phase slot: an operation through
   it would race whatever phase opened since (exactly the overlap the
   phase word exists to exclude), so it is refused eagerly rather than
   left to corrupt silently.  One bool-ref load on the hot path. *)
let check_open name closed what =
  if !closed then
    raise
      (Storage.Index.Phase_violation
         (Printf.sprintf "%s: %s through a finished handle" name what))

module Writer = struct
  type rel = t
  type t = { w_cur : Cursor.t; w_rel : rel; w_closed : bool ref }

  let insert w tup =
    check_open w.w_rel.name w.w_closed "insert";
    Cursor.insert w.w_cur tup

  let insert_batch ?pool w tuples =
    check_open w.w_rel.name w.w_closed "insert_batch";
    merge_batch ?pool w.w_rel tuples

  let finish w =
    if not !(w.w_closed) then Cursor.release w.w_cur;
    leave_phase w.w_rel Sync.Phase_latch.Write w.w_closed
end

module Reader = struct
  type rel = t
  type t = { r_cur : Cursor.t; r_rel : rel; r_closed : bool ref }

  let mem r tup =
    check_open r.r_rel.name r.r_closed "mem";
    Cursor.mem r.r_cur tup

  let scan r sig_id bound f =
    check_open r.r_rel.name r.r_closed "scan";
    Cursor.scan r.r_cur sig_id bound f

  let query r pat f =
    check_open r.r_rel.name r.r_closed "query";
    Cursor.query r.r_cur pat f

  let finish r =
    if not !(r.r_closed) then Cursor.release r.r_cur;
    leave_phase r.r_rel Sync.Phase_latch.Read r.r_closed
end

let begin_write t =
  (* a write may not open while readers are active *)
  enter_phase t Sync.Phase_latch.Write "write";
  { Writer.w_cur = Cursor.create t; w_rel = t; w_closed = ref false }

let begin_read t =
  (* a read may not open while writers are active *)
  enter_phase t Sync.Phase_latch.Read "read";
  { Reader.r_cur = Cursor.create t; r_rel = t; r_closed = ref false }
