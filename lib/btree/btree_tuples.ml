(* The engine's relation index: the one B-tree (btree.ml) over integer
   tuples, with the tuple kernel's comparator inside the search loops. *)

include Btree.Core (Olock) (Btree_kernel.Tuple)

let create ?capacity ?(binary_search = true) ~arity ~order () =
  create ?capacity (Btree_kernel.Tuple.make ~binary:binary_search ~arity ~order)

let arity t = Btree_kernel.Tuple.arity (ctx t)
let compare_tuples = compare_keys

let hint_counters h =
  let s = hint_stats h in
  ( s.insert_hits + s.find_hits + s.lower_bound_hits + s.upper_bound_hits,
    s.insert_misses + s.find_misses + s.lower_bound_misses
    + s.upper_bound_misses )
