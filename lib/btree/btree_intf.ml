(* The signatures of the one B-tree (btree.ml), shared by its .ml and
   .mli so they are written once.  Documented here; see btree.mli for the
   functor and its instantiations. *)

(** The operations every instantiation shares.  Trees are created by the
    instantiation ([GENERIC.create], [Btree_tuples.create]), because what
    a tree needs besides its capacity depends on the kernel. *)
module type S = sig
  type key

  type t
  (** A B-tree set of [key]s. *)

  val default_capacity : int

  (** {1 Operation hints}

      A [hints] value caches the last leaf located by each operation kind.
      Hints are {e thread-local by convention} and are owned by a
      per-domain {!session} — route hinted operations through {!s_insert}
      and friends; the values below exist for hint-statistics inspection
      (via {!s_hints}) and for the ablation harness.  Hints never dangle
      because nodes are never deleted. *)

  type hints

  val make_hints : unit -> hints
  (** Fresh, empty hints (the paper's "factory function for initial operation
      hints"). *)

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

  val hint_stats : hints -> hint_stats
  val reset_hint_stats : hints -> unit

  val merge_hint_stats : hint_stats list -> hint_stats
  val hit_rate : hint_stats -> float
  (** Overall fraction of hinted operations that hit, in [0..1]. *)

  val hint_run_hist : hints -> int array
  (** Hint-locality distribution: log2-bucketed lengths of uninterrupted
      hit runs (bucket [b>0] holds runs of [2^(b-1)..2^b-1] hits; bucket 0
      counts misses that immediately followed a miss).  A run is recorded
      when a miss breaks it; the still-open run, if any, is counted as if
      it closed now.  Long runs are the sorted access pattern the hints
      exploit (paper section 3.2). *)

  (** {1 Robustness}

      Optimistic descents retry on observing a concurrent write.  Under
      adversarial scheduling (or forced validation failures from the chaos
      layer) retries alone cannot bound the descent, so each insertion
      carries a retry budget: once the budget is exhausted the descent falls
      back to a {e pessimistic} write-locked descent that never holds one
      node lock while blocking on another (it re-acquires by CAS on a
      version observed under the previous lock, restarting from the root on
      failure — and every such restart coincides with a completed concurrent
      write, so the fallback makes global progress by construction).
      Fallbacks bump [Telemetry.Counter.Btree_pessimistic_fallbacks] and
      time into [Telemetry.Hist.Btree_fallback_ns]; healthy non-chaos runs
      never fall back (gated by tools/regress.sh). *)

  val set_restart_budget : int -> unit
  (** Optimistic restarts allowed per insertion before the pessimistic
      fallback engages (default 16).  [0] makes every descent pessimistic —
      used by tests and the stress harness to drive the fallback path
      deterministically.  Quiescent use only; per instantiation.
      @raise Invalid_argument if negative. *)

  val restart_budget : unit -> int

  (** {1 Modification} *)

  val insert : t -> key -> bool
  (** [insert t k] adds [k]; returns [true] iff [k] was not already present.
      Thread-safe against concurrent [insert]s (Algorithm 1).  Unhinted;
      for the hinted path use {!s_insert} on a per-domain {!session}. *)

  val insert_batch : ?pos:int -> ?len:int -> t -> key array -> int
  (** [insert_batch t run] inserts the sorted run [run.(pos..pos+len-1)]
      (non-decreasing in the tree's order; duplicates are skipped) and
      returns the number of fresh keys.  One optimistic descent acquires
      the target leaf's write permit together with the leaf's exclusive
      upper bound, and the run is then consumed up to that bound: same-gap
      keys are spliced with two blits, a full leaf is split in place and
      filling continues in the left half while the run allows
      (multi-split).  Amortises one descent and one write-lock acquisition
      over many keys — the batch generalisation of the insert hint.
      Thread-safe against concurrent [insert]s and [insert_batch]es.
      @raise Invalid_argument when the run is not sorted or the range is
      invalid. *)

  val insert_all : t -> t -> unit
  (** [insert_all dst src] inserts every element of [src] into [dst] in
      order, driving the insertion with internal hints so that runs of
      consecutive keys share tree traversals — the paper's specialised
      merge.  [src] is not modified.  Thread-safe on [dst] (it is a loop
      of [insert]s). *)

  (** {1 Queries (read phase)} *)

  val mem : t -> key -> bool
  val is_empty : t -> bool

  val cardinal : t -> int
  (** O(n); the tree maintains no element counter (counters would serialise
      writers). *)

  val min_elt : t -> key option
  val max_elt : t -> key option

  val lower_bound : t -> key -> key option
  (** Smallest element [>= k], if any. *)

  val upper_bound : t -> key -> key option
  (** Smallest element [> k], if any. *)

  val iter : (key -> unit) -> t -> unit
  (** In-order iteration over all elements. *)

  val fold : ('a -> key -> 'a) -> 'a -> t -> 'a

  val iter_while : (key -> bool) -> t -> unit
  (** In-order iteration stopping the first time the callback returns
      [false]. *)

  val iter_from : (key -> bool) -> t -> key -> unit
  (** [iter_from f t k] applies [f] in order to every element [>= k] and
      stops when [f] returns [false].  This is the range-scan primitive
      behind the Datalog engine's [lower_bound]/[upper_bound] joins.

      Through a session ({!s_iter_from}), a scan that starts inside (and
      completes within) the leaf cached by the previous bound query skips
      the tree traversal entirely; the hit is counted in the lower-bound
      hint statistics. *)

  val to_list : t -> key list
  val to_sorted_array : t -> key array

  val separators : t -> limit:int -> key array
  (** At most [limit] separator keys from the top levels of the tree, in
      ascending order — range-partition pivots for parallel structural
      merges: all keys below [separators.(i)] reach leaves disjoint from
      those reached by keys above it.  Quiescent use only. *)

  (** {1 Explicit iterators}

      An imperative cursor over the tree, mirroring the STL-like interface
      the paper's engine requires ([begin()]/[end()]/increment).  Iterators
      navigate through parent pointers, so they are O(1) amortised per step
      and need no heap-allocated stack.  Read-phase use only: advancing an
      iterator during concurrent writes is memory-safe but may miss or
      repeat elements. *)

  module Iterator : sig
    type it

    val start : t -> it
    (** Positioned on the smallest element ([begin()]); at the end for an
        empty tree. *)

    val seek : t -> key -> it
    (** Positioned on the smallest element [>= k] ([lower_bound]). *)

    val at_end : it -> bool

    val get : it -> key
    (** @raise Invalid_argument when {!at_end}. *)

    val advance : it -> unit
    (** Move to the in-order successor.  @raise Invalid_argument when
        already {!at_end}. *)

    val copy : it -> it
  end

  (** {1 Set predicates} *)

  val equal : t -> t -> bool
  (** Same elements (lockstep in-order walk; O(min(m, n))). *)

  val subset : t -> t -> bool
  (** [subset a b]: every element of [a] is in [b]. *)

  val disjoint : t -> t -> bool

  (** {1 Introspection (tests, space ablation)} *)

  type stats = {
    elements : int;
    nodes : int;
    leaves : int;
    height : int;
    fill : float;  (** mean node fill grade in [0..1] *)
  }

  val stats : t -> stats

  val shape : t -> Tree_shape.t
  (** Full structural report (per-level node counts, fill-factor deciles);
      same height/fill conventions as {!stats}: a root-only tree has
      height 1.  Quiescent use only. *)

  val check_invariants : t -> unit
  (** Validates ordering, node fill bounds, uniform leaf depth, edge-leaf
      flags and parent/position back-pointers.  @raise Failure describing
      the first violated invariant.  Quiescent use only. *)

  (** {1 Sessions}

      A session is a per-domain handle owning the domain's operation hints
      (and, by construction, delimiting the domain-local telemetry shard
      its operations account to).  Create one per domain with {!session}
      and route all of that domain's operations through it.  Sessions are
      the only hinted surface. *)

  type session

  val session : t -> session
  (** A fresh per-domain handle with empty hints.  Do not share across
      domains (memory-safe, but destroys the hint hit rate). *)

  val s_tree : session -> t
  val s_hints : session -> hints

  val s_insert : session -> key -> bool
  val s_insert_batch : ?pos:int -> ?len:int -> session -> key array -> int
  val s_mem : session -> key -> bool
  val s_lower_bound : session -> key -> key option
  val s_upper_bound : session -> key -> key option
  val s_iter_from : (key -> bool) -> session -> key -> unit
end

(** Trees over a generic ordered key. *)
module type GENERIC = sig
  include S

  val create : ?capacity:int -> ?binary_search:bool -> unit -> t
  (** [create ()] is an empty tree.

      @param capacity maximal number of keys per node (default [default_capacity]);
        must be at least 3.  Chosen so a node spans a few cache lines.
      @param binary_search search within nodes by binary instead of linear
        scan (default [false]: linear search wins for cache-resident node
        sizes, as in Soufflé).  Exposed for the width/search ablation. *)

  val of_sorted_array : ?capacity:int -> key array -> t
  (** Bulk-build from a sorted, duplicate-free array; O(n).  Used by the
      parallel-reduction baseline's merge step and by tests.
      @raise Invalid_argument if the input is not strictly increasing. *)
end
