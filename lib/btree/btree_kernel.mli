(** Key kernels: the key order and in-node search loops of {!Btree.Core}.

    The paper's tree is one data structure that C++ templates instantiate
    per tuple type with the 3-way comparator inlined (section 1, "tuned
    extras").  OCaml without flambda cannot inline a comparator passed to a
    functor, so a kernel owns the whole in-node search loop instead of just
    [compare]: the comparator is then a direct call inside the loop, and
    the tree pays one indirect call per node visited rather than one per
    comparison.

    Two kernels exist: {!Generic} over any {!Key.ORDERED} (linear search by
    default, for [Btree.Make] and [Btree.Seq]) and {!Tuple} over integer
    tuples under a per-tree column order (binary search by default, for
    [Btree_tuples]). *)

module type S = sig
  type key

  type ctx
  (** Per-tree comparison state (search flavour, column order), fixed at
      tree creation. *)

  val name : string
  (** Module name prefixed to the error messages of trees over this
      kernel. *)

  val dummy : key
  (** Filler for unused key slots; never observed through a tree's API. *)

  val order : ctx -> key -> key -> int
  (** [order ctx] is the tree's total order (3-way), built once per tree:
      the tree keeps the closure and calls it at the few compare sites
      outside the search loops (hint coverage, batch fills).  The generic
      kernel hands back [K.compare] itself, so those sites pay one
      indirect call, as a functor over [K] would. *)

  val search : ctx -> key array -> int -> key -> int
  (** [search ctx keys n key] finds the smallest [i] in [\[0, n)] with
      [keys.(i) >= key] ([n] if none) and whether [keys.(i) = key],
      packed as [(i lsl 1) lor found] so the hot path allocates nothing.
      [i] doubles as the descent child index. *)
end

module Generic (K : Key.ORDERED) : S with type key = K.t and type ctx = bool
(** Kernel over [K.compare]; the context is the binary-search flag. *)

module Tuple : sig
  include S with type key = int array

  val make : binary:bool -> arity:int -> order:int array -> ctx
  (** Lexicographic order over the columns [order] (a permutation of
      [0 .. arity-1]), with an inline fast path for arity 2.
      @raise Invalid_argument if [order] is not a permutation. *)

  val arity : ctx -> int
end
