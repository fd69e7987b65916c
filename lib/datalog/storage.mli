(** Pluggable tuple storage for Datalog relations.

    A relation is represented by one or more {e indexes}.  Every index holds
    the full tuples of its relation; an index with signature [cols] supports
    enumerating all tuples whose values at the columns [cols] equal given
    bound values (the access pattern of a join literal whose [cols] are bound
    when it executes).  The primary index (empty signature) additionally
    provides full-tuple membership, deduplicating insertion and whole-relation
    scans.

    Ordered storage kinds implement signature scans with a tree ordered by
    [cols]-major lexicographic comparison (lower_bound + in-order scan —
    exactly the paper's B-tree usage); hash-based kinds implement them with a
    hash multimap from bound values to tuples, since hashes cannot perform
    ordered range scans (footnote in DESIGN.md).

    Thread-safety contract, matching the two-phase discipline of parallel
    semi-naive evaluation: [insert] must be safe against concurrent [insert]s
    {e when the kind is flagged thread-safe}; the engine serialises inserts
    through a per-relation mutex for the other kinds (the paper's
    "global lock" configurations).  Queries are only ever concurrent with
    queries. *)

type kind =
  | Btree          (** the paper's tree, with operation hints *)
  | Btree_nohints  (** ablation: same tree, hints disabled *)
  | Rbtree         (** red-black tree — "STL rbtset" *)
  | Hashset        (** open-addressing hash — "STL hashset" *)
  | Bplus          (** sequential B+-tree — "google btree" *)
  | Tbb_hash       (** lock-striped concurrent hash — "TBB hashset" *)

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_name : string -> kind option

val thread_safe_insert : kind -> bool
(** Whether [insert] may be called concurrently without external locking. *)

val shares_indexes : kind -> bool
(** Whether one physical index can serve every signature on a containment
    chain (tree kinds, via an explicit [order]); hash multimaps serve
    exactly one signature each.

    All per-kind metadata ([kind_name], {!thread_safe_insert}, this) is
    answered by one internal backend table — a first-class module per kind
    also holding its index factory — rather than per-call matches. *)

val total_order : arity:int -> int array -> int array
(** [total_order ~arity listed] is the full column order of an ordered
    index created with [listed] as its signature or [order]: [listed],
    then every other column of an [arity]-tuple in ascending position.
    The primary index's order is [0 .. arity-1]. *)

module Index : sig
  type t

  val create :
    kind ->
    arity:int ->
    cols:int array ->
    ?order:int array ->
    stats:Dl_stats.t option ->
    unit ->
    t
  (** [cols] is the signature: strictly increasing column indices, possibly
      empty (primary).  When [stats] is given, operations count into it.

      [order], accepted by the ordered (tree) kinds, overrides the index's
      comparison order with an explicit column permutation; it must contain
      [cols] within its prefix.  This is how several signatures forming a
      containment chain share one physical index ({!Index_selection}): any
      signature whose columns form a prefix set of [order] can be scanned on
      this index.  Hash kinds ignore [order] (a hash multimap serves exactly
      one signature). *)

  val insert : t -> int array -> bool
  (** Add a tuple (the array is not retained for hash kinds and retained
      as-is for tree kinds; callers must not mutate tuples after insertion).
      Returns [true] iff new.  Only meaningful as a freshness signal on the
      primary index; secondary indexes always contain exactly the tuples of
      the primary. *)

  val merge : ?pool:Pool.t -> t -> int array array -> int
  (** [merge ?pool t tuples] inserts an {e unsorted} tuple array: the
      ordered kinds sort a private copy in the index's own order and
      insert it as a sorted run (the B-tree kinds through
      {!Btree_tuples.insert_batch}, which amortises one descent and one
      leaf write permit across each leaf's worth of the run); hash kinds
      loop over inserts.  With a pool of more than one worker and enough
      tuples, thread-safe kinds run the merge in parallel — the B-tree kinds
      partition the run by the tree's internal separators so every
      partition descends into a disjoint subtree and batch-inserts with
      its own hints (the parallel structural merge); concurrent hash kinds
      spread a plain insert loop.  Serial for the thread-unsafe kinds.
      Returns the fresh-tuple count (primary index only). *)

  val mem : t -> int array -> bool
  val iter : t -> (int array -> unit) -> unit
  val cardinal : t -> int
  val is_empty : t -> bool
  (** O(1) (unlike [cardinal], which may enumerate). *)

  (** Per-worker access handle carrying operation hints (tree kinds) — the
      paper's thread-local hint records, created once per worker and reused
      across operations. *)
  type cursor

  val cursor : t -> cursor
  val c_insert : cursor -> int array -> bool
  val c_mem : cursor -> int array -> bool

  val c_scan : cursor -> cols:int array -> int array -> (int array -> unit) -> unit
  (** [c_scan cur ~cols bound f] calls [f] on every tuple whose columns
      [cols] equal [bound] (same length, in [cols] order).  [cols] must be
      the index's own signature for hash kinds, and any prefix set of the
      index's order for tree kinds.  With empty [cols] this is a full
      scan. *)

  val c_release : cursor -> unit
  (** Fold the cursor's hint statistics into its index's totals and drop
      its per-domain session.  Call it when the worker's phase ends; a
      released cursor stays usable (its next hinted operation starts a
      fresh session).  Sessions are created lazily, on a cursor's first
      hinted operation, so a cursor that is never used costs its index
      nothing. *)

  val hint_counters : t -> (int * int) option
  (** [(hits, misses)] aggregated over every cursor ever used on this
      index (live cursors plus the totals of released ones) — the paper's section 4.3 hint hit-rate statistic.  [None] for
      storage kinds without operation hints. *)

  val shape : t -> Tree_shape.t option
  (** Structural report of the underlying tree; [None] for non-B-tree
      kinds.  Quiescent use only. *)

  val hint_runs : t -> int array option
  (** Hint-locality distribution ({!Btree_tuples.hint_run_hist}) summed
      over every cursor ever used on this index; [None] for unhinted kinds
      or when no cursor has run a hinted operation. *)

  val merge_runs : int array option -> int array option -> int array option
  (** Element-wise sum of two optional {!hint_runs} histograms. *)

  exception Phase_violation of string

  val with_phase_check : name:string -> t -> t
  (** Debug wrapper enforcing the paper's two-phase contract: at any moment
      an index is either being read (any number of concurrent readers) or
      written (any number of concurrent inserters), never both.  Raises
      {!Phase_violation} the moment a read overlaps a write.  Used by the
      test suite to validate that parallel semi-naive evaluation respects
      the discipline the B-tree's synchronisation is specialised for. *)
end
