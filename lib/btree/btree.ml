(* The B-tree of the paper, written once: optimistic read-write locking and
   operation hints over a lock and a key kernel.

   Structure: a classic B-tree — elements live in inner nodes as well as
   leaves, an inner node with [k] elements has [k + 1] children.  Nodes are
   never deleted, moved or converted between leaf and inner, which is the
   property that makes optimistic traversal and hint pointers safe.

   Synchronisation (Algorithm 1 / 2 of the paper):
   - every node carries an optimistic read-write lock; the tree carries an
     extra [root_lock] protecting the root pointer;
   - insertion descends taking read leases only, validating a node's lease
     before acting on anything read from it (in particular before descending
     through a child pointer);
   - at the target leaf the lease is upgraded to an exclusive write permit by
     compare-and-swap; failure of any validation or upgrade restarts the
     insertion from the root;
   - splits write-lock the ancestor path bottom-up (re-checking the parent
     pointer after each acquisition, since a concurrent split of the parent
     may have moved the child), perform the split, and unlock top-down.  The
     fresh right sibling of every split node is write-locked from birth
     until the split is complete.

   Instantiations: [Make] ([Olock], generic kernel) is the concurrent tree,
   [Seq] ([No_lock], generic kernel) its sequential twin, and [Btree_tuples]
   ([Olock], tuple kernel) the engine's relation index.

   Memory-model note.  Payload fields ([keys], [nkeys], [children], [parent],
   [position]) are plain mutable fields read racily during optimistic
   descent.  OCaml's memory model defines such races (a read yields some
   value previously written, never a wild pointer), so the only extra care
   needed is bounds-clamping of racily read counters before they are used as
   indices; semantic inconsistency is caught by lease validation, whose
   [Atomic] accesses provide the acquire/release edges of the Boehm seqlock
   recipe. *)

module type S = Btree_intf.S
module type GENERIC = Btree_intf.GENERIC

module Core (L : Olock.S) (KK : Btree_kernel.S) = struct
  type key = KK.key

  type node = {
    lock : L.t;
    mutable parent : node option; (* covered by the parent's lock *)
    mutable position : int;       (* index in parent.children; ditto *)
    keys : key array;             (* length = capacity *)
    mutable nkeys : int;
    children : node array;        (* length = capacity + 1, or [||] for leaves *)
    (* Whether this leaf is the first/last leaf of the whole tree.  Lets the
       hint coverage check extend the edge leaves' ranges to infinity ("weak
       coverage"), which is what makes hints effective on the append-heavy
       ordered workloads Datalog produces.  A leaf's edge status only changes
       when that leaf itself splits, so the flags are covered by the leaf's
       own lock — unlike the parent-walk Soufflé uses in its sequential tree,
       this is sound under concurrent optimistic readers. *)
    mutable leftmost : bool;
    mutable rightmost : bool;
  }

  type t = {
    root_lock : L.t;
    mutable root : node; (* == sentinel while the tree is empty *)
    capacity : int;
    ctx : KK.ctx;
    order : key -> key -> int; (* [KK.order ctx] *)
  }

  let default_capacity = 24

  (* Placeholder stored in unused child slots and in [t.root] of an empty
     tree.  It is a 0-key leaf, so accidentally descending into it during a
     racy read is harmless: the search finds nothing and validation fails. *)
  let sentinel =
    {
      lock = L.create ();
      parent = None;
      position = 0;
      keys = [||];
      nkeys = 0;
      children = [||];
      leftmost = false;
      rightmost = false;
    }

  let is_leaf n = Array.length n.children = 0

  let alloc t children =
    {
      lock = L.create ();
      parent = None;
      position = 0;
      keys = Array.make t.capacity KK.dummy;
      nkeys = 0;
      children;
      leftmost = false;
      rightmost = false;
    }

  let alloc_leaf t = alloc t [||]
  let alloc_inner t = alloc t (Array.make (t.capacity + 1) sentinel)

  let create ?(capacity = default_capacity) ctx =
    if capacity < 3 then invalid_arg (KK.name ^ ".create: capacity must be >= 3");
    { root_lock = L.create (); root = sentinel; capacity; ctx; order = KK.order ctx }

  let ctx t = t.ctx
  let compare_keys t a b = t.order a b

  (* Clamp a racily read key count into the valid index range of [n]. *)
  let clamped_nkeys n =
    let k = n.nkeys in
    if k < 0 then 0
    else
      let cap = Array.length n.keys in
      if k > cap then cap else k

  (* [search t keys n key] packs the smallest index [i] in [0, n) with
     [keys.(i) >= key] (or [n] if none) and whether [keys.(i) = key]; see
     [Btree_kernel.S.search].  [slot] doubles as the descent child index. *)
  let search t keys n key = KK.search t.ctx keys n key
  let[@inline] slot r = r lsr 1
  let[@inline] hit r = r land 1 = 1

  (* The smallest index with [keys.(i) > key] (strict) or [>= key]: a
     node's keys are strictly increasing, so the strict bound is one past
     a match. *)
  let[@inline] bound_slot ~strict r = if strict && hit r then slot r + 1 else slot r

  (* ------------------------------------------------------------------ *)
  (* Hints (section 3.2)                                                *)
  (* ------------------------------------------------------------------ *)

  type hints = {
    mutable insert_leaf : node;
    mutable find_leaf : node;
    mutable lb_leaf : node;
    mutable ub_leaf : node;
    mutable h_insert_hits : int;
    mutable h_insert_misses : int;
    mutable h_find_hits : int;
    mutable h_find_misses : int;
    mutable h_lb_hits : int;
    mutable h_lb_misses : int;
    mutable h_ub_hits : int;
    mutable h_ub_misses : int;
    mutable h_run : int; (* length of the current uninterrupted hit run *)
    h_runs : int array; (* log2-bucketed run lengths, closed at each miss *)
  }

  let run_buckets = 16

  let make_hints () =
    {
      insert_leaf = sentinel;
      find_leaf = sentinel;
      lb_leaf = sentinel;
      ub_leaf = sentinel;
      h_insert_hits = 0;
      h_insert_misses = 0;
      h_find_hits = 0;
      h_find_misses = 0;
      h_lb_hits = 0;
      h_lb_misses = 0;
      h_ub_hits = 0;
      h_ub_misses = 0;
      h_run = 0;
      h_runs = Array.make run_buckets 0;
    }

  (* Hint locality: every miss closes the current run of consecutive hits
     and records its length (bucket b holds runs of 2^(b-1)..2^b-1 hits;
     bucket 0 is the 0-hit run — a miss straight after a miss).  Long runs
     are the sorted access pattern the paper's hints exploit. *)
  let run_bucket r =
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    let b = bits r 0 in
    if b >= run_buckets then run_buckets - 1 else b

  let hit_run h =
    h.h_run <- h.h_run + 1;
    Telemetry.bump Telemetry.Counter.Btree_hint_hits

  let miss_run h =
    let b = run_bucket h.h_run in
    h.h_run <- 0;
    h.h_runs.(b) <- h.h_runs.(b) + 1;
    Telemetry.bump Telemetry.Counter.Btree_hint_misses

  let hint_run_hist h =
    (* copy, with the still-open run counted as if it closed now *)
    let a = Array.copy h.h_runs in
    if h.h_run > 0 then begin
      let b = run_bucket h.h_run in
      a.(b) <- a.(b) + 1
    end;
    a

  type hint_stats = {
    insert_hits : int;
    insert_misses : int;
    find_hits : int;
    find_misses : int;
    lower_bound_hits : int;
    lower_bound_misses : int;
    upper_bound_hits : int;
    upper_bound_misses : int;
  }

  let hint_stats h =
    {
      insert_hits = h.h_insert_hits;
      insert_misses = h.h_insert_misses;
      find_hits = h.h_find_hits;
      find_misses = h.h_find_misses;
      lower_bound_hits = h.h_lb_hits;
      lower_bound_misses = h.h_lb_misses;
      upper_bound_hits = h.h_ub_hits;
      upper_bound_misses = h.h_ub_misses;
    }

  let reset_hint_stats h =
    h.h_insert_hits <- 0;
    h.h_insert_misses <- 0;
    h.h_find_hits <- 0;
    h.h_find_misses <- 0;
    h.h_lb_hits <- 0;
    h.h_lb_misses <- 0;
    h.h_ub_hits <- 0;
    h.h_ub_misses <- 0;
    h.h_run <- 0;
    Array.fill h.h_runs 0 run_buckets 0

  let merge_hint_stats l =
    List.fold_left
      (fun a b ->
        {
          insert_hits = a.insert_hits + b.insert_hits;
          insert_misses = a.insert_misses + b.insert_misses;
          find_hits = a.find_hits + b.find_hits;
          find_misses = a.find_misses + b.find_misses;
          lower_bound_hits = a.lower_bound_hits + b.lower_bound_hits;
          lower_bound_misses = a.lower_bound_misses + b.lower_bound_misses;
          upper_bound_hits = a.upper_bound_hits + b.upper_bound_hits;
          upper_bound_misses = a.upper_bound_misses + b.upper_bound_misses;
        })
      {
        insert_hits = 0;
        insert_misses = 0;
        find_hits = 0;
        find_misses = 0;
        lower_bound_hits = 0;
        lower_bound_misses = 0;
        upper_bound_hits = 0;
        upper_bound_misses = 0;
      }
      l

  let hit_rate s =
    let hits =
      s.insert_hits + s.find_hits + s.lower_bound_hits + s.upper_bound_hits
    in
    let total =
      hits + s.insert_misses + s.find_misses + s.lower_bound_misses
      + s.upper_bound_misses
    in
    if total = 0 then 0.0 else float_of_int hits /. float_of_int total

  (* A leaf "covers" [key] when [key] falls within its responsibility range;
     in a classic B-tree no inner separator can fall strictly inside a leaf's
     range, so a covering leaf is authoritative for [key].  The first/last
     leaf of the tree covers everything below/above its keys ("weak
     coverage"), which makes hints hit on append-style ordered streams. *)
  let covers t n nk key =
    nk > 0
    && (n.leftmost || compare_keys t n.keys.(0) key <= 0)
    && (n.rightmost || compare_keys t key n.keys.(nk - 1) <= 0)

  (* ------------------------------------------------------------------ *)
  (* Splitting (Algorithm 2)                                            *)
  (* ------------------------------------------------------------------ *)

  type locked_ancestor = Anc_node of node | Anc_root

  (* Write-lock [cur]'s parent, re-reading the parent pointer after each
     acquisition: a concurrent split of the old parent may have moved [cur]
     under a new one.  [cur] itself must already be write-locked by the
     caller, which rules out the None <-> Some transitions. *)
  let lock_parent t cur =
    match cur.parent with
    | None ->
      L.start_write t.root_lock;
      Anc_root
    | Some p ->
      let rec acquire p =
        L.start_write p.lock;
        match cur.parent with
        | Some p' when p' == p -> Anc_node p
        | Some p' ->
          L.abort_write p.lock;
          acquire p'
        | None ->
          (* unreachable: a node's parent is cleared only never — roots are
             the only parentless nodes and [cur] is write-locked *)
          L.abort_write p.lock;
          assert false
      in
      acquire p

  (* Lock ancestors bottom-up until a non-full node or the root lock;
     returns them bottom-up (immediate parent first). *)
  let lock_path t node =
    let rec go cur acc =
      match lock_parent t cur with
      | Anc_root -> List.rev (Anc_root :: acc)
      | Anc_node p ->
        if p.nkeys < t.capacity then List.rev (Anc_node p :: acc)
        else go p (Anc_node p :: acc)
    in
    go node []

  let unlock_path t path =
    List.iter
      (fun a ->
        match a with
        | Anc_node p -> L.end_write p.lock
        | Anc_root -> L.end_write t.root_lock)
      (List.rev path)

  (* Split a full, write-locked node around its median; returns
     [(median, right_sibling)] with the sibling write-locked — the caller
     releases it once the sibling is linked into the parent.  Children moved
     to the sibling get their parent/position fields updated here, and from
     that moment a writer splitting one of them locks the sibling as its
     parent: it must wait until this split has finished linking, or two
     writers would modify the sibling at once. *)
  let split_node t node =
    Telemetry.bump
      (if is_leaf node then Telemetry.Counter.Btree_leaf_splits
       else Telemetry.Counter.Btree_inner_splits);
    let cap = t.capacity in
    let mid = cap / 2 in
    let median = node.keys.(mid) in
    let right = if is_leaf node then alloc_leaf t else alloc_inner t in
    L.start_write right.lock;
    let rcount = cap - mid - 1 in
    Array.blit node.keys (mid + 1) right.keys 0 rcount;
    right.nkeys <- rcount;
    if not (is_leaf node) then begin
      Array.blit node.children (mid + 1) right.children 0 (rcount + 1);
      for i = 0 to rcount do
        let c = right.children.(i) in
        c.parent <- Some right;
        c.position <- i
      done
    end;
    node.nkeys <- mid;
    right.rightmost <- node.rightmost;
    node.rightmost <- false;
    (median, right)

  (* Insert separator [median] and its right subtree [right] just after the
     child [cur] of the write-locked, non-full node [p]. *)
  let link_sibling p cur right median =
    let i = cur.position in
    let n = p.nkeys in
    Array.blit p.keys i p.keys (i + 1) (n - i);
    p.keys.(i) <- median;
    Array.blit p.children (i + 1) p.children (i + 2) (n - i);
    p.children.(i + 1) <- right;
    p.nkeys <- n + 1;
    right.parent <- Some p;
    for j = i + 1 to n + 1 do
      p.children.(j).position <- j
    done

  (* Propagate a split upward along the locked [path]: every path node except
     the last is full and is split in turn; the final node (or a fresh root)
     absorbs the last separator. *)
  let rec insert_into_parent t path cur right median =
    match path with
    | [] -> assert false
    | Anc_root :: _ ->
      (* [cur] is the root: grow the tree by one level. *)
      Telemetry.bump Telemetry.Counter.Btree_root_splits;
      let new_root = alloc_inner t in
      new_root.keys.(0) <- median;
      new_root.nkeys <- 1;
      new_root.children.(0) <- cur;
      new_root.children.(1) <- right;
      cur.parent <- Some new_root;
      cur.position <- 0;
      right.parent <- Some new_root;
      right.position <- 1;
      t.root <- new_root
    | Anc_node p :: rest ->
      if p.nkeys >= t.capacity then begin
        let p_median, p_right = split_node t p in
        insert_into_parent t rest p p_right p_median;
        (* [split_node] redirected moved children, so [cur.parent] now names
           whichever half [cur] landed in. *)
        let q = match cur.parent with Some q -> q | None -> assert false in
        link_sibling q cur right median;
        L.end_write p_right.lock
      end
      else link_sibling p cur right median

  (* Split the full node [node] (write-locked by the caller, who also
     releases that lock afterwards, cf. Algorithm 1 line 41).  Returns the
     separator that moved up and the new right half — the batch path uses
     the separator as the left half's new exclusive upper bound to keep
     filling without re-descending, the hinted insert picks the half that
     covers its key. *)
  let split_returning t node =
    let path = lock_path t node in
    (* chaos: widen the window during which the ancestor path is
       write-locked, forcing concurrent descents onto their restart (and
       eventually fallback) paths *)
    Chaos.yield_if Chaos.Point.Btree_split_delay;
    let median, right = split_node t node in
    insert_into_parent t path node right median;
    L.end_write right.lock;
    unlock_path t path;
    (median, right)

  let split t node = ignore (split_returning t node : key * node)

  (* ------------------------------------------------------------------ *)
  (* Insertion (Algorithm 1)                                            *)
  (* ------------------------------------------------------------------ *)

  (* Safely create the root node of an empty tree (Algorithm 1, lines 2-9). *)
  let ensure_root t =
    while t.root == sentinel do
      if L.try_start_write t.root_lock then begin
        if t.root == sentinel then begin
          let leaf = alloc_leaf t in
          leaf.leftmost <- true;
          leaf.rightmost <- true;
          t.root <- leaf
        end;
        L.end_write t.root_lock
      end
    done

  (* Insert [key] at index [idx] of the write-locked, non-full leaf. *)
  let insert_in_leaf leaf idx key =
    let n = leaf.nkeys in
    Array.blit leaf.keys idx leaf.keys (idx + 1) (n - idx);
    leaf.keys.(idx) <- key;
    leaf.nkeys <- n + 1

  (* Optimistic restarts allowed per insertion before the pessimistic
     fallback engages.  0 = always pessimistic (tests, stress harness). *)
  let restart_budget_v = ref 16

  let set_restart_budget n =
    if n < 0 then
      invalid_arg (KK.name ^ ".set_restart_budget: budget must be >= 0");
    restart_budget_v := n

  let restart_budget () = !restart_budget_v

  (* Acquire the root node's write permit while holding nothing, then
     confirm it still is the root: replacing the root requires write-locking
     the old root (via [lock_path]), which our permit excludes. *)
  let rec acquire_root t =
    let cur = t.root in
    L.start_write cur.lock;
    if t.root == cur then cur
    else begin
      L.abort_write cur.lock;
      acquire_root t
    end

  (* Pessimistic fallback descent: every level is visited under that node's
     {e write} permit, so leases cannot go stale and validation cannot fail
     — the descent terminates in O(height) node visits unless a concurrent
     writer completes on the very node being stepped to.  The hand-over-hand
     step never blocks while holding a lock (the discipline that keeps the
     bottom-up splitters deadlock-free): holding [cur]'s write permit we
     read the child's raw version [v], release [cur], and re-acquire the
     child by CAS on [v].  The CAS certifies the child is unchanged since it
     was observed under [cur]'s permit, exactly like an optimistic upgrade;
     a failure means a writer {e completed} on the child in between, i.e.
     the system made progress, and we restart from the root.  Livelock is
     therefore impossible by construction: every repeated restart is paid
     for by a finished insertion elsewhere.

     Note the fallback never calls [L.valid], so forced validation failures
     from the chaos layer cannot unbound it. *)
  let rec insert_pessimistic t key =
    (* invariant: [cur] write-locked, no other lock held.  [level]/[bucket]
       are flight-recorder node identity: depth from the root and the
       root-child index the descent took (-1 above the first branch). *)
    let rec go cur level bucket =
      let r = search t cur.keys cur.nkeys key in
      let idx = slot r in
      if hit r then begin
        L.abort_write cur.lock;
        sentinel
      end
      else if not (is_leaf cur) then begin
        let next = cur.children.(idx) in
        let bucket' = if level = 0 then idx else bucket in
        let v = L.version next.lock in
        L.abort_write cur.lock;
        if v land 1 = 0 && L.try_upgrade_to_write next.lock v then
          go next (level + 1) bucket'
        else begin
          Flight.record Flight.Ev.Upgrade_fail (level + 1) bucket' 0;
          insert_pessimistic t key
        end
      end
      else if cur.nkeys >= t.capacity then begin
        (* bottom-up split: only the leaf permit is held, same discipline as
           the optimistic path *)
        Flight.record Flight.Ev.Split level bucket 0;
        split t cur;
        L.end_write cur.lock;
        insert_pessimistic t key
      end
      else begin
        insert_in_leaf cur idx key;
        L.end_write cur.lock;
        cur
      end
    in
    go (acquire_root t) 0 (-1)

  (* Run a pessimistic descent under the fallback's telemetry. *)
  let fallback descent t key =
    Telemetry.bump Telemetry.Counter.Btree_pessimistic_fallbacks;
    Flight.record Flight.Ev.Fallback !restart_budget_v 0 0;
    let t0 = Telemetry.hist_time () in
    let r = descent t key in
    Telemetry.hist_end Telemetry.Hist.Btree_fallback_ns t0;
    r

  (* Full insertion: optimistic descent from the root.  Returns the leaf
     that received the key (to refresh hints), or [sentinel] when the key
     was already present.
     [attempts] counts optimistic restarts; past the budget the descent
     degrades to {!insert_pessimistic}. *)
  let rec insert_slow t key attempts =
    if attempts >= !restart_budget_v then fallback insert_pessimistic t key
    else begin
      (* Obtain the root and a lease on it, validating the root pointer
         (Algorithm 1, lines 13-17). *)
      let root_lease = L.start_read t.root_lock in
      let cur = t.root in
      let cur_lease = L.start_read cur.lock in
      if L.end_read t.root_lock root_lease then
        descend t key cur cur_lease 0 (-1) attempts
      else restart t key attempts
    end

  and restart t key attempts =
    (* optimistic descent observed a concurrent write: back to the root *)
    Telemetry.bump Telemetry.Counter.Btree_restarts;
    Flight.record Flight.Ev.Restart (attempts + 1) 0 0;
    insert_slow t key (attempts + 1)

  (* [level] is the depth of [cur] (0 = root); [bucket] is the root-child
     index this descent took — a genuine key-range bucket, since the root
     separators partition the key space — or -1 above the first branch.
     Both tag the flight-recorder contention events, so post-mortem
     heatmaps can name the level and key region where leases died. *)
  and descend t key cur cur_lease level bucket attempts =
    (* chaos: stretch the read phase so concurrent writers invalidate the
       lease — drives the restart counter and, past the budget, the
       pessimistic fallback *)
    Chaos.yield_if Chaos.Point.Btree_descent_yield;
    let r = search t cur.keys (clamped_nkeys cur) key in
    let idx = slot r in
    if hit r then begin
      (* value already present — if the observation was consistent *)
      if L.valid cur.lock cur_lease then sentinel
      else begin
        Flight.record Flight.Ev.Validation_fail level bucket 0;
        restart t key attempts
      end
    end
    else if not (is_leaf cur) then begin
      let next = cur.children.(idx) in
      let bucket' = if level = 0 then idx else bucket in
      if not (L.valid cur.lock cur_lease) then begin
        Flight.record Flight.Ev.Validation_fail level bucket 0;
        restart t key attempts
      end
      else begin
        let next_lease = L.start_read next.lock in
        if not (L.valid cur.lock cur_lease) then begin
          Flight.record Flight.Ev.Validation_fail level bucket 0;
          restart t key attempts
        end
        else descend t key next next_lease (level + 1) bucket' attempts
      end
    end
    else if not (L.try_upgrade_to_write cur.lock cur_lease) then begin
      Flight.record Flight.Ev.Upgrade_fail level bucket 0;
      restart t key attempts
    end
    else if cur.nkeys >= t.capacity then begin
      Flight.record Flight.Ev.Split level bucket 0;
      split t cur;
      L.end_write cur.lock;
      (* a split is progress, not a failed validation: re-descend on the
         same budget *)
      insert_slow t key attempts
    end
    else begin
      (* The upgrade CAS certifies the node is unchanged since the lease, so
         [idx]/[found] computed above are still accurate. *)
      insert_in_leaf cur idx key;
      L.end_write cur.lock;
      cur
    end

  let insert_slow t key = insert_slow t key 0

  (* One attempt to insert directly at the hinted leaf. *)
  type hint_attempt = Done of bool | Fallback

  (* Hinted attempts have no descent, so their flight events carry the
     -1/-1 "hinted leaf" node identity.  A full hinted leaf is split in
     place and the attempt moves on to the half that covers [key] (which
     becomes the hint), so an ordered stream keeps hitting across splits. *)
  let rec try_insert_at t h leaf key =
    let lease = L.start_read leaf.lock in
    let n = clamped_nkeys leaf in
    if not (covers t leaf n key && L.valid leaf.lock lease) then Fallback
    else begin
      let r = search t leaf.keys n key in
      if hit r then
        if L.valid leaf.lock lease then Done false
        else begin
          Flight.record Flight.Ev.Validation_fail (-1) (-1) 0;
          Fallback
        end
      else if not (L.try_upgrade_to_write leaf.lock lease) then begin
        Flight.record Flight.Ev.Upgrade_fail (-1) (-1) 0;
        Fallback
      end
      else if leaf.nkeys >= t.capacity then begin
        (* Bottom-up split locking starts from the hinted leaf — the very
           compatibility property of section 3.2. *)
        Flight.record Flight.Ev.Split (-1) (-1) 0;
        let median, right = split_returning t leaf in
        L.end_write leaf.lock;
        let half = if compare_keys t key median < 0 then leaf else right in
        h.insert_leaf <- half;
        try_insert_at t h half key
      end
      else begin
        insert_in_leaf leaf (slot r) key;
        L.end_write leaf.lock;
        Done true
      end
    end

  let insert_op ?hints t key =
    ensure_root t;
    match hints with
    | None -> insert_slow t key != sentinel
    | Some h ->
      let attempt =
        if h.insert_leaf == sentinel then Fallback
        else try_insert_at t h h.insert_leaf key
      in
      (match attempt with
      | Done b ->
        h.h_insert_hits <- h.h_insert_hits + 1;
        hit_run h;
        b
      | Fallback ->
        h.h_insert_misses <- h.h_insert_misses + 1;
        miss_run h;
        let leaf = insert_slow t key in
        leaf != sentinel
        && begin
             h.insert_leaf <- leaf;
             true
           end)

  let insert ?hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_insert_ns in
    let r = insert_op ?hints t key in
    Telemetry.hist_end Telemetry.Hist.Btree_insert_ns t0;
    r

  (* ------------------------------------------------------------------ *)
  (* Batch insertion (sorted runs)                                      *)
  (* ------------------------------------------------------------------ *)

  (* The batch path extends the hint mechanism from "retry the last leaf"
     to "fill the current leaf up to its upper bound": one descent acquires
     the target leaf's write permit together with the exclusive upper bound
     of the leaf's responsibility range (the last separator the descent
     passed on the way down), then consumes run keys until the first key at
     or past that bound.  The bound snapshot stays authoritative while the
     leaf's write permit is held, because a node's range only shrinks when
     that node itself splits — which our permit excludes.  Runs of keys
     falling into the same inter-key gap are spliced with two blits
     ([Leaf_pack.splice]); a full leaf is split in place and filling
     continues in the left half while the run allows it (multi-split). *)

  type batch_target = Bt_dup | Bt_leaf of node * key option

  (* Pessimistic twin of [batch_locate]: same hand-over-hand CAS step as
     {!insert_pessimistic} (see the progress argument there), but carrying
     the exclusive upper bound down and returning the leaf still
     write-locked, as the batch filler expects.  The bound snapshot is exact
     here — every separator was read under its node's write permit. *)
  let rec batch_pessimistic t key =
    let rec go cur hi level bucket =
      let n = cur.nkeys in
      let r = search t cur.keys n key in
      let idx = slot r in
      if not (is_leaf cur) then
        if hit r then begin
          L.abort_write cur.lock;
          Bt_dup
        end
        else begin
          let next = cur.children.(idx) in
          let hi = if idx < n then Some cur.keys.(idx) else hi in
          let bucket' = if level = 0 then idx else bucket in
          let v = L.version next.lock in
          L.abort_write cur.lock;
          if v land 1 = 0 && L.try_upgrade_to_write next.lock v then
            go next hi (level + 1) bucket'
          else begin
            Flight.record Flight.Ev.Upgrade_fail (level + 1) bucket' 0;
            batch_pessimistic t key
          end
        end
      else Bt_leaf (cur, hi)
    in
    go (acquire_root t) None 0 (-1)

  (* Write-lock the leaf responsible for [key], carrying its exclusive
     upper bound down the descent ([None] on the rightmost spine).  [Bt_dup]
     means [key] was found in an inner node.  Same retry budget as the
     single-key descent. *)
  let rec batch_locate t key attempts =
    if attempts >= !restart_budget_v then fallback batch_pessimistic t key
    else begin
      let root_lease = L.start_read t.root_lock in
      let cur = t.root in
      let cur_lease = L.start_read cur.lock in
      if L.end_read t.root_lock root_lease then
        batch_descend t key cur cur_lease None 0 (-1) attempts
      else batch_restart t key attempts
    end

  and batch_restart t key attempts =
    Telemetry.bump Telemetry.Counter.Btree_restarts;
    Flight.record Flight.Ev.Restart (attempts + 1) 0 0;
    batch_locate t key (attempts + 1)

  (* [level]/[bucket] as in [descend]: flight-recorder node identity. *)
  and batch_descend t key cur cur_lease hi level bucket attempts =
    Chaos.yield_if Chaos.Point.Btree_descent_yield;
    let n = clamped_nkeys cur in
    let r = search t cur.keys n key in
    let idx = slot r in
    if not (is_leaf cur) then
      if hit r then
        if L.valid cur.lock cur_lease then Bt_dup
        else begin
          Flight.record Flight.Ev.Validation_fail level bucket 0;
          batch_restart t key attempts
        end
      else begin
        let next = cur.children.(idx) in
        let hi = if idx < n then Some cur.keys.(idx) else hi in
        let bucket' = if level = 0 then idx else bucket in
        if not (L.valid cur.lock cur_lease) then begin
          Flight.record Flight.Ev.Validation_fail level bucket 0;
          batch_restart t key attempts
        end
        else begin
          let next_lease = L.start_read next.lock in
          if not (L.valid cur.lock cur_lease) then begin
            Flight.record Flight.Ev.Validation_fail level bucket 0;
            batch_restart t key attempts
          end
          else batch_descend t key next next_lease hi (level + 1) bucket' attempts
        end
      end
    else if not (L.try_upgrade_to_write cur.lock cur_lease) then begin
      Flight.record Flight.Ev.Upgrade_fail level bucket 0;
      batch_restart t key attempts
    end
    else Bt_leaf (cur, hi)

  let batch_locate t key = batch_locate t key 0

  (* Consume [run.(i0 ..)] (up to exclusive index [stop_idx]) into the
     write-locked [leaf] while keys stay below [limit]; returns the next
     unconsumed index and the fresh count, releasing the write permit. *)
  let batch_fill t run i0 stop_idx leaf limit0 =
    let fresh = ref 0 in
    let i = ref i0 in
    let limit = ref limit0 in
    let stop = ref false in
    while (not !stop) && !i < stop_idx do
      let key = run.(!i) in
      let cmp_limit =
        match !limit with None -> -1 | Some b -> compare_keys t key b
      in
      if cmp_limit = 0 then incr i (* equals a live separator: duplicate *)
      else if cmp_limit > 0 then stop := true
      else begin
        let nk = leaf.nkeys in
        let r = search t leaf.keys nk key in
        let idx = slot r in
        if hit r then incr i
        else if nk >= t.capacity then begin
          Flight.record Flight.Ev.Split (-1) (-1) 0;
          let median, _ = split_returning t leaf in
          if compare_keys t key median < 0 then limit := Some median
          else stop := true (* the rest of the run re-descends *)
        end
        else begin
          (* splice the whole gap group in two blits *)
          let gap_hi = if idx < nk then Some leaf.keys.(idx) else !limit in
          let in_gap k =
            match gap_hi with None -> true | Some b -> compare_keys t k b < 0
          in
          let room = t.capacity - nk in
          let j = ref (!i + 1) in
          while
            !j - !i < room && !j < stop_idx
            && compare_keys t run.(!j - 1) run.(!j) < 0
            && in_gap run.(!j)
          do
            incr j
          done;
          let glen = !j - !i in
          Leaf_pack.splice ~keys:leaf.keys ~nkeys:nk ~at:idx ~src:run
            ~src_pos:!i ~len:glen;
          leaf.nkeys <- nk + glen;
          fresh := !fresh + glen;
          Telemetry.bump Telemetry.Counter.Btree_batch_splices;
          i := !j
        end
      end
    done;
    L.end_write leaf.lock;
    (!i, !fresh)

  (* Hinted fast path of the batch: upgrade the cached leaf when it covers
     [key]; its own last key then bounds the fill (the leaf is authoritative
     only up to there unless it is rightmost). *)
  let batch_hinted t h key =
    let leaf = h.insert_leaf in
    if leaf == sentinel then None
    else begin
      let lease = L.start_read leaf.lock in
      let nk = clamped_nkeys leaf in
      if covers t leaf nk key && L.try_upgrade_to_write leaf.lock lease then
        Some
          (leaf, if leaf.rightmost then None else Some leaf.keys.(leaf.nkeys - 1))
      else None
    end

  let insert_batch_op ?hints t run pos len =
    let stop_idx = pos + len in
    for k = pos + 1 to stop_idx - 1 do
      if compare_keys t run.(k - 1) run.(k) > 0 then
        invalid_arg (KK.name ^ ".insert_batch: run not sorted")
    done;
    if len = 0 then 0
    else begin
      ensure_root t;
      Telemetry.add Telemetry.Counter.Btree_batch_keys len;
      let fresh = ref 0 in
      let i = ref pos in
      while !i < stop_idx do
        let key = run.(!i) in
        let hinted =
          match hints with
          | None -> None
          | Some h ->
            let r = batch_hinted t h key in
            if r = None then begin
              h.h_insert_misses <- h.h_insert_misses + 1;
              miss_run h
            end
            else begin
              h.h_insert_hits <- h.h_insert_hits + 1;
              hit_run h
            end;
            r
        in
        let target =
          match hinted with
          | Some _ -> hinted
          | None -> (
            match batch_locate t key with
            | Bt_dup ->
              incr i;
              None
            | Bt_leaf (leaf, hi) -> Some (leaf, hi))
        in
        match target with
        | None -> ()
        | Some (leaf, limit) ->
          Telemetry.bump Telemetry.Counter.Btree_batch_leaves;
          let i', f = batch_fill t run !i stop_idx leaf limit in
          (match hints with Some h -> h.insert_leaf <- leaf | None -> ());
          i := i';
          fresh := !fresh + f
      done;
      !fresh
    end

  let insert_batch ?hints ?(pos = 0) ?len t run =
    let n = Array.length run in
    let len = match len with Some l -> l | None -> n - pos in
    if pos < 0 || len < 0 || pos + len > n then
      invalid_arg (KK.name ^ ".insert_batch: invalid range");
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_batch_ns in
    let r = insert_batch_op ?hints t run pos len in
    Telemetry.hist_end Telemetry.Hist.Btree_batch_ns t0;
    r

  (* ------------------------------------------------------------------ *)
  (* Read operations (read phase: no synchronisation needed)            *)
  (* ------------------------------------------------------------------ *)

  (* Unhinted membership: a plain descent, allocation-free. *)
  let rec mem_from t node key =
    node != sentinel
    &&
    let r = search t node.keys (clamped_nkeys node) key in
    hit r || ((not (is_leaf node)) && mem_from t node.children.(slot r) key)

  (* The descent of a missed hinted membership test, which also refreshes
     the hint with the leaf it reaches. *)
  let rec mem_refresh t h node key =
    node != sentinel
    &&
    let r = search t node.keys (clamped_nkeys node) key in
    if is_leaf node then begin
      h.find_leaf <- node;
      hit r
    end
    else hit r || mem_refresh t h node.children.(slot r) key

  let mem_op ?hints t key =
    match hints with
    | None -> mem_from t t.root key
    | Some h ->
      let leaf = h.find_leaf in
      let nk = if leaf == sentinel then 0 else clamped_nkeys leaf in
      if covers t leaf nk key then begin
        h.h_find_hits <- h.h_find_hits + 1;
        hit_run h;
        hit (search t leaf.keys nk key)
      end
      else begin
        h.h_find_misses <- h.h_find_misses + 1;
        miss_run h;
        mem_refresh t h t.root key
      end

  let mem ?hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_find_ns in
    let r = mem_op ?hints t key in
    Telemetry.hist_end Telemetry.Hist.Btree_find_ns t0;
    r

  let is_empty t = t.root == sentinel || (t.root.nkeys = 0 && is_leaf t.root)

  let rec min_node n = if is_leaf n then n else min_node n.children.(0)
  let rec max_node n = if is_leaf n then n else max_node n.children.(n.nkeys)

  let min_elt t =
    if is_empty t then None
    else
      let n = min_node t.root in
      Some n.keys.(0)

  let max_elt t =
    if is_empty t then None
    else
      let n = max_node t.root in
      Some n.keys.(n.nkeys - 1)

  (* Generic bound query: [strict = false] gives lower_bound (>=), [strict =
     true] gives upper_bound (>).  At each node, [g] is the index of the
     smallest qualifying element; the answer is either inside [children.(g)]
     (whose range ends just below [keys.(g)]) or [keys.(g)] itself.
     [visited], when given, receives the leaf the descent ends in — used to
     refresh hints without a second traversal. *)
  let bound_visit ?visited ~strict t key =
    let rec go node best =
      if node == sentinel then best
      else
        let n = clamped_nkeys node in
        if is_leaf node then (
          match visited with Some r -> r := node | None -> ());
        let r = search t node.keys n key in
        if hit r && not strict then Some key
        else
          let g = bound_slot ~strict r in
          if is_leaf node then if g < n then Some node.keys.(g) else best
          else
            let best = if g < n then Some node.keys.(g) else best in
            go node.children.(g) best
    in
    go t.root None

  let bound_hinted ~strict ?hints t key =
    match hints with
    | None -> bound_visit ~strict t key
    | Some h ->
      let leaf = if strict then h.ub_leaf else h.lb_leaf in
      let nk = if leaf == sentinel then 0 else clamped_nkeys leaf in
      (* A covering leaf answers bound queries authoritatively, except when
         the answer would be past its last key — the successor then lives in
         an ancestor — unless the leaf is rightmost (then there is none). *)
      let usable =
        nk > 0
        && (leaf.leftmost || compare_keys t leaf.keys.(0) key <= 0)
        &&
        let c = compare_keys t key leaf.keys.(nk - 1) in
        if strict then c < 0 || leaf.rightmost else c <= 0 || leaf.rightmost
      in
      if usable then begin
        let idx = bound_slot ~strict (search t leaf.keys nk key) in
        if strict then h.h_ub_hits <- h.h_ub_hits + 1
        else h.h_lb_hits <- h.h_lb_hits + 1;
        hit_run h;
        if idx < nk then Some leaf.keys.(idx) else None
      end
      else begin
        if strict then h.h_ub_misses <- h.h_ub_misses + 1
        else h.h_lb_misses <- h.h_lb_misses + 1;
        miss_run h;
        (* the query's own descent refreshes the hint *)
        let visited = ref sentinel in
        let r = bound_visit ~visited ~strict t key in
        if !visited != sentinel then
          if strict then h.ub_leaf <- !visited else h.lb_leaf <- !visited;
        r
      end

  let lower_bound ?hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_bound_ns in
    let r = bound_hinted ~strict:false ?hints t key in
    Telemetry.hist_end Telemetry.Hist.Btree_bound_ns t0;
    r

  let upper_bound ?hints t key =
    let t0 = Telemetry.hist_start Telemetry.Hist.Btree_bound_ns in
    let r = bound_hinted ~strict:true ?hints t key in
    Telemetry.hist_end Telemetry.Hist.Btree_bound_ns t0;
    r

  (* In-order walk of the subtree under [node] — the loop of every full
     scan.  The count is clamped to the key array (and an inner node has
     one more child slot than keys), so the unchecked reads stay in
     bounds. *)
  let rec iter_node f node =
    if node != sentinel then begin
      let keys = node.keys and n = clamped_nkeys node in
      if is_leaf node then
        for i = 0 to n - 1 do
          f (Array.unsafe_get keys i)
        done
      else begin
        let children = node.children in
        for i = 0 to n - 1 do
          iter_node f (Array.unsafe_get children i);
          f (Array.unsafe_get keys i)
        done;
        iter_node f (Array.unsafe_get children n)
      end
    end

  let iter f t = iter_node f t.root

  let fold f init t =
    let acc = ref init in
    iter (fun k -> acc := f !acc k) t;
    !acc

  exception Stop

  let iter_while f t =
    let g k = if not (f k) then raise Stop in
    try iter g t with Stop -> ()

  (* [strict = true] starts at the first element [> key] instead of [>= key];
     used to resume a scan past a known element.  [visited], when given,
     receives the first leaf the scan descends into (the leaf holding the
     range start), to refresh hints without a second traversal. *)
  let iter_from_plain ?visited ~strict f t key =
    let emit k = if not (f k) then raise Stop in
    let emit_all node = iter_node emit node in
    let rec scan node =
      if node != sentinel then begin
        let n = clamped_nkeys node in
        let r = search t node.keys n key in
        let idx = slot r and start = bound_slot ~strict r in
        if is_leaf node then begin
          (match visited with Some r -> r := node | None -> ());
          for i = start to n - 1 do
            emit node.keys.(i)
          done
        end
        else begin
          scan node.children.(idx);
          if start > idx then emit_all node.children.(idx + 1);
          for i = start to n - 1 do
            emit node.keys.(i);
            emit_all node.children.(i + 1)
          done
        end
      end
    in
    try scan t.root with Stop -> ()

  let iter_from ?hints f t key =
    match hints with
    | None -> iter_from_plain ~strict:false f t key
    | Some h ->
      let leaf = h.lb_leaf in
      let nk = if leaf == sentinel then 0 else clamped_nkeys leaf in
      if covers t leaf nk key then begin
        h.h_lb_hits <- h.h_lb_hits + 1;
        hit_run h;
        let continue = ref true in
        let i = ref (slot (search t leaf.keys nk key)) in
        while !continue && !i < nk do
          continue := f leaf.keys.(!i);
          incr i
        done;
        (* ran off the hinted leaf: resume past its last key unless it is
           the last leaf of the tree *)
        if !continue && not leaf.rightmost then
          iter_from_plain ~strict:true f t leaf.keys.(nk - 1)
      end
      else begin
        h.h_lb_misses <- h.h_lb_misses + 1;
        miss_run h;
        (* the scan's own descent refreshes the hint *)
        let visited = ref sentinel in
        iter_from_plain ~visited ~strict:false f t key;
        if !visited != sentinel then h.lb_leaf <- !visited
      end

  let cardinal t = fold (fun n _ -> n + 1) 0 t
  let to_list t = List.rev (fold (fun acc k -> k :: acc) [] t)

  let to_sorted_array t =
    let n = cardinal t in
    if n = 0 then [||]
    else begin
      let first = match min_elt t with Some k -> k | None -> assert false in
      let a = Array.make n first in
      let i = ref 0 in
      iter
        (fun k ->
          a.(!i) <- k;
          incr i)
        t;
      a
    end

  let insert_all dst src =
    let h = make_hints () in
    iter (fun k -> ignore (insert ~hints:h dst k : bool)) src

  (* ------------------------------------------------------------------ *)
  (* Bulk building                                                      *)
  (* ------------------------------------------------------------------ *)

  let of_sorted_array ?capacity ctx arr =
    let t = create ?capacity ctx in
    let len = Array.length arr in
    for i = 1 to len - 1 do
      if compare_keys t arr.(i - 1) arr.(i) >= 0 then
        invalid_arg (KK.name ^ ".of_sorted_array: input not strictly increasing")
    done;
    if len > 0 then begin
      (* Target fill keeps headroom for later inserts; shared with the
         batch insert path via [Leaf_pack] so bulk-built and batch-grown
         trees agree on packing conventions. *)
      let target = Leaf_pack.target_fill ~capacity:t.capacity in
      (* max elements in a subtree of the given height *)
      let rec max_elems h =
        if h = 0 then target else target + ((target + 1) * max_elems (h - 1))
      in
      let rec height_for n h = if max_elems h >= n then h else height_for n (h + 1) in
      let rec build lo hi h =
        let n = hi - lo in
        if h = 0 then begin
          let leaf = alloc_leaf t in
          Leaf_pack.splice ~keys:leaf.keys ~nkeys:0 ~at:0 ~src:arr
            ~src_pos:lo ~len:n;
          leaf.nkeys <- n;
          leaf
        end
        else begin
          let sub = max_elems (h - 1) in
          (* smallest child count whose subtrees can absorb the elements *)
          let k = max 2 (((n - 1) / (sub + 1)) + 1) in
          let k = min k (t.capacity + 1) in
          let node = alloc_inner t in
          let elems = n - (k - 1) in
          let base = elems / k and extra = elems mod k in
          let pos = ref lo in
          for i = 0 to k - 1 do
            let sz = base + if i < extra then 1 else 0 in
            let child = build !pos (!pos + sz) (h - 1) in
            child.parent <- Some node;
            child.position <- i;
            node.children.(i) <- child;
            pos := !pos + sz;
            if i < k - 1 then begin
              node.keys.(i) <- arr.(!pos);
              incr pos
            end
          done;
          node.nkeys <- k - 1;
          node
        end
      in
      let h = height_for len 0 in
      t.root <- build 0 len h;
      (min_node t.root).leftmost <- true;
      (max_node t.root).rightmost <- true
    end;
    t

  (* Separator keys from the top of the tree, ascending: range-partition
     pivots for parallel structural merges.  Collects whole levels top-down
     until at least [limit] keys are available (the keys of one level are
     sorted among themselves and are valid pivots on their own), then thins
     evenly to at most [limit].  Quiescent use only. *)
  let separators t ~limit =
    if limit <= 0 || is_empty t then [||]
    else begin
      let rec level nodes =
        let keys =
          List.concat_map
            (fun n -> Array.to_list (Array.sub n.keys 0 n.nkeys))
            nodes
        in
        if List.length keys >= limit || is_leaf (List.hd nodes) then keys
        else
          level
            (List.concat_map
               (fun n -> List.init (n.nkeys + 1) (fun i -> n.children.(i)))
               nodes)
      in
      let keys = Array.of_list (level [ t.root ]) in
      let n = Array.length keys in
      if n <= limit then keys
      else Array.init limit (fun i -> keys.(i * n / limit))
    end

  (* ------------------------------------------------------------------ *)
  (* Explicit iterators                                                 *)
  (* ------------------------------------------------------------------ *)

  module Iterator = struct
    (* [inode == sentinel] encodes the end iterator.  For a leaf position,
       [idx] indexes the next element; for an inner position, [idx] is the
       separator key just reached after exhausting child [idx]. *)
    type it = { mutable inode : node; mutable idx : int }

    let at_end it = it.inode == sentinel
    let copy it = { inode = it.inode; idx = it.idx }

    let start t =
      if is_empty t then { inode = sentinel; idx = 0 }
      else { inode = min_node t.root; idx = 0 }

    let get it =
      if at_end it then invalid_arg (KK.name ^ ".Iterator.get: at end")
      else it.inode.keys.(it.idx)

    (* climb to the nearest ancestor of which [node] is not the last child;
       yields that ancestor's separator position, or the end *)
    let rec climb it node =
      match node.parent with
      | None ->
        it.inode <- sentinel;
        it.idx <- 0
      | Some p ->
        if node.position < p.nkeys then begin
          it.inode <- p;
          it.idx <- node.position
        end
        else climb it p

    let advance it =
      if at_end it then invalid_arg (KK.name ^ ".Iterator.advance: at end");
      let n = it.inode in
      if is_leaf n then
        if it.idx + 1 < n.nkeys then it.idx <- it.idx + 1 else climb it n
      else begin
        (* successor of an inner separator: leftmost leaf of the subtree to
           its right *)
        let leaf = min_node n.children.(it.idx + 1) in
        it.inode <- leaf;
        it.idx <- 0
      end

    let seek t key =
      let rec go node best =
        if node == sentinel then best
        else
          let nk = node.nkeys in
          let r = search t node.keys nk key in
          let idx = slot r in
          if hit r then { inode = node; idx }
          else if is_leaf node then
            if idx < nk then { inode = node; idx } else best
          else
            go node.children.(idx)
              (if idx < nk then { inode = node; idx } else best)
      in
      go t.root { inode = sentinel; idx = 0 }
  end

  (* ------------------------------------------------------------------ *)
  (* Set predicates                                                     *)
  (* ------------------------------------------------------------------ *)

  let equal a b =
    let ia = Iterator.start a and ib = Iterator.start b in
    let rec go () =
      match (Iterator.at_end ia, Iterator.at_end ib) with
      | true, true -> true
      | false, false ->
        compare_keys a (Iterator.get ia) (Iterator.get ib) = 0
        && begin
             Iterator.advance ia;
             Iterator.advance ib;
             go ()
           end
      | _ -> false
    in
    go ()

  let subset a b =
    let missing = ref false in
    iter_while
      (fun k ->
        if mem b k then true
        else begin
          missing := true;
          false
        end)
      a;
    not !missing

  let disjoint a b =
    (* lockstep merge walk: a shared element stops the scan *)
    let ia = Iterator.start a and ib = Iterator.start b in
    let rec go () =
      if Iterator.at_end ia || Iterator.at_end ib then true
      else
        let c = compare_keys a (Iterator.get ia) (Iterator.get ib) in
        if c = 0 then false
        else begin
          if c < 0 then Iterator.advance ia else Iterator.advance ib;
          go ()
        end
    in
    go ()

  (* ------------------------------------------------------------------ *)
  (* Introspection                                                      *)
  (* ------------------------------------------------------------------ *)

  type stats = {
    elements : int;
    nodes : int;
    leaves : int;
    height : int;
    fill : float;
  }

  (* Full structural report (root-only tree has height 1).  Quiescent
     traversal. *)
  let shape t =
    if is_empty t then Tree_shape.empty ~capacity:t.capacity
    else begin
      let rec depth n = if is_leaf n then 1 else 1 + depth n.children.(0) in
      let h = depth t.root in
      let level_nodes = Array.make h 0 in
      let level_keys = Array.make h 0 in
      let fill_deciles = Array.make 10 0 in
      let elements = ref 0 and nodes = ref 0 and leaves = ref 0 in
      let rec go n d =
        incr nodes;
        elements := !elements + n.nkeys;
        level_nodes.(d) <- level_nodes.(d) + 1;
        level_keys.(d) <- level_keys.(d) + n.nkeys;
        let dec = n.nkeys * 10 / t.capacity in
        let dec = if dec > 9 then 9 else dec in
        fill_deciles.(dec) <- fill_deciles.(dec) + 1;
        if is_leaf n then incr leaves
        else
          for i = 0 to n.nkeys do
            go n.children.(i) (d + 1)
          done
      in
      go t.root 0;
      {
        Tree_shape.elements = !elements;
        nodes = !nodes;
        leaves = !leaves;
        height = h;
        capacity = t.capacity;
        fill = float_of_int !elements /. float_of_int (!nodes * t.capacity);
        level_nodes;
        level_keys;
        fill_deciles;
      }
    end

  let stats t =
    let s = shape t in
    {
      elements = s.Tree_shape.elements;
      nodes = s.Tree_shape.nodes;
      leaves = s.Tree_shape.leaves;
      height = s.Tree_shape.height;
      fill = s.Tree_shape.fill;
    }

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    if not (is_empty t) then begin
      let leaf_depth = ref (-1) in
      (* [lo]/[hi] are exclusive bounds on the subtree's keys. *)
      let rec go node depth lo hi =
        let n = node.nkeys in
        if n < 1 then fail "node with %d keys" n;
        if n > t.capacity then fail "node overflow: %d > %d" n t.capacity;
        for i = 0 to n - 2 do
          if compare_keys t node.keys.(i) node.keys.(i + 1) >= 0 then
            fail "keys out of order at index %d" i
        done;
        (match lo with
        | Some l ->
          if compare_keys t l node.keys.(0) >= 0 then fail "lower bound violated"
        | None -> ());
        (match hi with
        | Some h ->
          if compare_keys t node.keys.(n - 1) h >= 0 then fail "upper bound violated"
        | None -> ());
        if is_leaf node then begin
          if !leaf_depth = -1 then leaf_depth := depth
          else if !leaf_depth <> depth then
            fail "leaves at different depths (%d vs %d)" !leaf_depth depth;
          (* edge flags must identify exactly the first/last leaf *)
          let is_first = lo = None and is_last = hi = None in
          if node.leftmost <> is_first then
            fail "leftmost flag %b on leaf with is_first=%b" node.leftmost
              is_first;
          if node.rightmost <> is_last then
            fail "rightmost flag %b on leaf with is_last=%b" node.rightmost
              is_last
        end
        else
          for i = 0 to n do
            let c = node.children.(i) in
            if c == sentinel then fail "sentinel child in occupied slot %d" i;
            (match c.parent with
            | Some p when p == node -> ()
            | _ -> fail "broken parent pointer at child %d" i);
            if c.position <> i then
              fail "broken position: child %d records %d" i c.position;
            let lo = if i = 0 then lo else Some node.keys.(i - 1) in
            let hi = if i = n then hi else Some node.keys.(i) in
            go c (depth + 1) lo hi
          done
      in
      (match t.root.parent with
      | None -> ()
      | Some _ -> fail "root has a parent");
      go t.root 0 None None
    end

  (* ------------------------------------------------------------------ *)
  (* Sessions                                                           *)
  (* ------------------------------------------------------------------ *)

  (* A per-domain handle bundling the tree with that domain's operation
     hints; telemetry is domain-local by construction, so a session also
     delimits the telemetry shard its operations account to.  This is the
     only hinted surface: the [?hints] parameters on the raw operations are
     internal, shadowed by unhinted rebinds below. *)

  type session = { s_tree : t; s_hints : hints }

  let session t = { s_tree = t; s_hints = make_hints () }
  let s_tree s = s.s_tree
  let s_hints s = s.s_hints
  let s_insert s key = insert ~hints:s.s_hints s.s_tree key

  let s_insert_batch ?pos ?len s run =
    insert_batch ~hints:s.s_hints ?pos ?len s.s_tree run

  let s_mem s key = mem ~hints:s.s_hints s.s_tree key
  let s_lower_bound s key = lower_bound ~hints:s.s_hints s.s_tree key
  let s_upper_bound s key = upper_bound ~hints:s.s_hints s.s_tree key
  let s_iter_from f s key = iter_from ~hints:s.s_hints f s.s_tree key

  (* The [?hints] optional arguments are not exported: hinted operation
     goes through a per-domain session, everything else through these
     unhinted rebinds. *)
  let insert t key = insert t key
  let insert_batch ?pos ?len t run = insert_batch ?pos ?len t run
  let mem t key = mem t key
  let lower_bound t key = lower_bound t key
  let upper_bound t key = upper_bound t key
  let iter_from f t key = iter_from f t key
end

(* The sequential twin's lock: every permit is granted at once and nothing
   is counted, so the shared algorithm runs with its synchronisation
   compiled down to no-op calls — the "seq btree" contestant of Fig. 3. *)
module No_lock : Olock.S = struct
  type t = unit
  type lease = int

  let create () = ()
  let start_read () = 0
  let valid () _ = true
  let end_read () _ = true
  let try_upgrade_to_write () _ = true
  let try_start_write () = true
  let start_write () = ()
  let end_write () = ()
  let abort_write () = ()
  let is_write_locked () = false
  let version () = 0
end

(* A tree over a generic [Key.ORDERED]: the kernel context is just the
   binary-search flag, defaulted here. *)
module Over_keys (L : Olock.S) (KK : Btree_kernel.S with type ctx = bool) = struct
  include Core (L) (KK)

  let create ?capacity ?(binary_search = false) () = create ?capacity binary_search
  let of_sorted_array ?capacity arr = of_sorted_array ?capacity false arr
end

module Make (K : Key.ORDERED) = Over_keys (Olock) (Btree_kernel.Generic (K))

module Seq (K : Key.ORDERED) =
  Over_keys
    (No_lock)
    (struct
      include Btree_kernel.Generic (K)

      let name = "Btree_seq"
    end)
