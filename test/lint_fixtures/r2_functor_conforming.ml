(* R2 conforming fixture inside a functor body: the lease comes from the
   functor's lock parameter [L], the way Btree.Core takes its lock, and
   every path validates, upgrades or hands it off.  Never compiled — test
   data for test_lint.ml. *)

module Make (L : Olock.S) = struct
  let read lock data =
    let lease = L.start_read lock in
    let v = data () in
    if L.end_read lock lease then Some v else None

  let upgrade lock =
    let lease = L.start_read lock in
    if L.try_upgrade_to_write lock lease then begin
      L.end_write lock;
      true
    end
    else false

  (* Handing the lease to a helper is the callee's obligation. *)
  let handoff helper lock =
    let lease = L.start_read lock in
    helper lock lease
end
