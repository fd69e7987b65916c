(* Key kernels for Btree.Core: each owns the order and the in-node search
   loops, so the comparator is a direct call inside the loop (see the
   interface for why the loop, not just [compare], sits here). *)

module type S = sig
  type key
  type ctx

  val name : string
  val dummy : key
  val order : ctx -> key -> key -> int
  val search : ctx -> key array -> int -> key -> int
end

(* [found i b] packs a search result: slot in the high bits, hit in bit 0. *)
let found i b = (i lsl 1) lor if b then 1 else 0

(* The loops below are top-level functions taking everything they use as
   arguments: a local [let rec] capturing the key or the array would
   allocate a closure on every search or comparison. *)

module Generic (K : Key.ORDERED) = struct
  type key = K.t
  type ctx = bool

  let name = "Btree"
  let dummy = K.dummy
  let order _ = K.compare

  let rec search_linear keys n key i =
    if i >= n then n lsl 1
    else
      let c = K.compare key (Array.unsafe_get keys i) in
      if c > 0 then search_linear keys n key (i + 1) else found i (c = 0)

  let search_binary keys n key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare (Array.unsafe_get keys mid) key < 0 then lo := mid + 1
      else hi := mid
    done;
    let i = !lo in
    found i (i < n && K.compare (Array.unsafe_get keys i) key = 0)

  let search binary keys n key =
    if binary then search_binary keys n key else search_linear keys n key 0
end

module Tuple = struct
  type key = int array

  type ctx = {
    binary : bool;
    arity : int;
    order : int array;
    two_cols : bool; (* arity 2: use the inline fast path *)
    c0 : int;
    c1 : int; (* the two columns of the fast path *)
  }

  let name = "Btree_tuples"
  let dummy : key = [||]
  let arity c = c.arity

  let make ~binary ~arity ~order =
    let bad () =
      invalid_arg "Btree_tuples.create: order must be a permutation of columns"
    in
    if Array.length order <> arity then bad ();
    let seen = Array.make arity false in
    Array.iter
      (fun c ->
        if c < 0 || c >= arity || seen.(c) then bad ();
        seen.(c) <- true)
      order;
    {
      binary;
      arity;
      order;
      two_cols = arity = 2;
      c0 = (if arity > 0 then order.(0) else 0);
      c1 = (if arity > 1 then order.(1) else 0);
    }

  let rec compare_from order n (a : key) (b : key) i =
    if i = n then 0
    else
      let p = Array.unsafe_get order i in
      let x = Array.unsafe_get a p and y = Array.unsafe_get b p in
      if x < y then -1 else if x > y then 1 else compare_from order n a b (i + 1)

  let[@inline] compare2 c0 c1 (a : key) (b : key) =
    let x = Array.unsafe_get a c0 and y = Array.unsafe_get b c0 in
    if x < y then -1
    else if x > y then 1
    else
      let x = Array.unsafe_get a c1 and y = Array.unsafe_get b c1 in
      if x < y then -1 else if x > y then 1 else 0

  (* The 3-way tuple comparator.  The arity-2 fast path skips the
     permutation loop; the general case walks [order]. *)
  let compare c (a : key) (b : key) =
    if c.two_cols then compare2 c.c0 c.c1 a b
    else compare_from c.order (Array.length c.order) a b 0

  (* The same order as a two-argument closure, specialised once per tree. *)
  let order c =
    if c.two_cols then begin
      let c0 = c.c0 and c1 = c.c1 in
      fun a b -> compare2 c0 c1 a b
    end
    else begin
      let o = c.order in
      let n = Array.length o in
      fun a b -> compare_from o n a b 0
    end

  let rec search_linear c keys n key i =
    if i >= n then n lsl 1
    else
      let r = compare c key (Array.unsafe_get keys i) in
      if r > 0 then search_linear c keys n key (i + 1) else found i (r = 0)

  let search_binary c keys n key =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if compare c (Array.unsafe_get keys mid) key < 0 then lo := mid + 1
      else hi := mid
    done;
    let i = !lo in
    found i (i < n && compare c (Array.unsafe_get keys i) key = 0)

  let search c keys n key =
    if c.binary then search_binary c keys n key
    else search_linear c keys n key 0
end
