(** The engine's relation index: {!Btree.Core} over [Olock] and the tuple
    kernel ({!Btree_kernel.Tuple}).

    This is the paper's tree instantiated for integer tuples, the way
    Soufflé's C++ templates instantiate it per relation type: the 3-way
    tuple comparator (an arity-2 fast path, else a loop over the column
    order) is a direct call inside the kernel's in-node search loop rather
    than a closure called per comparison.  Concurrency contract, hints and
    algorithms are those of {!Btree}.

    Tuples are [int array]s of a fixed arity; ordering is lexicographic over
    [order] (a column permutation: the index signature's bound columns
    first).  Inserted arrays are retained — callers must not mutate them. *)

include Btree.S with type key = int array

val create :
  ?capacity:int -> ?binary_search:bool -> arity:int -> order:int array -> unit -> t
(** [order] must be a permutation of [0 .. arity-1].  In-node search is
    binary by default ([binary_search]), unlike the generic tree.
    @raise Invalid_argument otherwise. *)

val arity : t -> int

val compare_tuples : t -> int array -> int array -> int
(** The tree's [order]-major lexicographic tuple comparison — what "sorted"
    means for {!insert_batch} runs on this tree. *)

val hint_counters : hints -> int * int
(** (hits, misses) over all operation kinds. *)
