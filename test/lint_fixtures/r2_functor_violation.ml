(* R2 firing fixture inside a functor body: leases from the functor's lock
   parameter [L] that escape or go unvalidated, plus a blocking call under
   an [L] write permit (R3).  Never compiled — test data for
   test_lint.ml. *)

module Make (L : Olock.S) = struct
  (* Escapes into a constructor, and is never validated: two findings. *)
  let peek lock =
    let lease = L.start_read lock in
    Some lease

  (* A lease made only to be thrown away. *)
  let dropped lock = ignore (L.start_read lock)

  (* Blocks on a mutex while holding the write permit. *)
  let blocking lock m =
    L.start_write lock;
    Mutex.lock m;
    Mutex.unlock m;
    L.end_write lock
end
