(** The specialized concurrent B-tree of the paper (section 3), written once.

    A classic in-memory B-tree (elements stored in inner nodes as well as
    leaves) over a totally ordered key type, specialised for parallel
    semi-naive Datalog evaluation:

    - {b concurrent insertion} with the optimistic fine-grained locking
      scheme of Algorithms 1 and 2: descent takes read leases only and
      validates them before every use; exclusive write permits are taken on
      the target leaf by lease upgrade and, for splits, bottom-up along the
      ancestor path;
    - {b no deletion}: Datalog relations only grow, so nodes are never freed
      or replaced — which is what makes both optimistic reads and operation
      hints safe;
    - {b operation hints} (section 3.2): thread-local caches of the last leaf
      accessed by each of the four frequent operations (insert, membership,
      lower bound, upper bound).  When the next operation falls within the
      cached leaf's key range the tree traversal is skipped entirely;
    - {b two-phase usage}: in every parallel context the tree is either
      exclusively written or exclusively queried.  [insert] is safe against
      concurrent [insert]s; the read operations ([mem], bounds, iteration)
      are safe against concurrent reads and need no synchronisation, per the
      semi-naive evaluation guarantee (section 2).

    The implementation never blocks readers, and writers block only in
    [start_write] during bottom-up split locking, preserving the paper's
    deadlock-freedom argument (read permits are non-blocking, write permits
    are acquired in strictly increasing tree-level order).

    The algorithms live in one functor, {!Core}, over a lock and a key
    kernel ({!Btree_kernel}).  Its three instantiations are {!Make} (the
    concurrent tree over any ordered key), {!Seq} (the same code over a
    no-op lock: the sequential twin) and [Btree_tuples] (the concurrent
    tree over integer tuples with the tuple kernel). *)

module type S = Btree_intf.S
(** The operations every instantiation shares (documented in
    [Btree_intf.S]). *)

(** The tree written once, over a lock [L] and a key kernel [KK].  Every
    lock call goes through [L]; every in-node search through [KK], so the
    kernel's comparator is a direct call inside its own search loop. *)
module Core (L : Olock.S) (KK : Btree_kernel.S) : sig
  include S with type key = KK.key

  val create : ?capacity:int -> KK.ctx -> t
  (** [create ctx] is an empty tree ordered by the kernel context [ctx].
      @param capacity maximal number of keys per node (default
        {!default_capacity}); must be at least 3. *)

  val of_sorted_array : ?capacity:int -> KK.ctx -> key array -> t
  (** Bulk-build from a strictly increasing array; O(n).  Packing
      conventions (node target fill) are shared with {!insert_batch}
      through [Leaf_pack].
      @raise Invalid_argument if the input is not strictly increasing. *)

  val ctx : t -> KK.ctx
  val compare_keys : t -> key -> key -> int
  (** The tree's order — what "sorted" means for {!insert_batch} runs. *)
end

module type GENERIC = Btree_intf.GENERIC
(** Trees over a generic ordered key: [create ?capacity ?binary_search ()]
    and [of_sorted_array] on top of {!S}. *)

module Make (K : Key.ORDERED) : GENERIC with type key = K.t
(** The concurrent tree: {!Core} over [Olock] and the generic kernel. *)

module Seq (K : Key.ORDERED) : GENERIC with type key = K.t
(** The sequential twin: {!Core} over a no-op lock and the generic kernel.
    Same data structure, hints and algorithms as {!Make} with every lock
    operation succeeding at once.  This is the paper's "seq btree"
    contestant: it isolates the cost of the optimistic locking scheme
    (compare [seq btree] vs [btree] in Fig. 3).  Not thread-safe. *)
