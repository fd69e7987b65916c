(* CPU steal over the run, to keep its bursts out of the gated metrics.

   Steal is time the hypervisor gave another guest while this machine's
   CPUs had work.  It comes in bursts that last from seconds to minutes,
   and it slows a 2-domain program more than its share: each domain waits
   for the other at every stop-the-world minor collection, so both stall
   when either CPU is taken.  In tuning, an evaluation that took 5.5 s at
   no steal took 7.6 s at 14% and about 10 s at 25-30%, with no change in
   the code.

   The measuring loops call [mark] often.  Each timed sample then gets the
   stolen share of the interval it covers, and [calm] keeps the samples
   whose share is at most the run's median or [floor], whichever is
   higher.  A calm run keeps almost every sample; a run that meets a burst
   drops the samples taken inside it.  Steal is machine-wide and does not
   depend on the code under test, so the choice does not favour a fast or
   a slow build. *)

(* (time ns, steal ticks, total ticks), newest first *)
let marks = ref []

let mark () =
  let t = Util.now_ns () in
  match !marks with
  | (t', _, _) :: _ when t - t' < 100_000_000 -> ()
  | _ ->
    let s, total = Child.cpu_ticks () in
    marks := (t, s, total) :: !marks

(* Stolen share of the CPU time from the last mark at or before [t0] to
   the first mark at or after [t1] (the nearest marks inside the interval
   when there are none outside it). *)
let share t0 t1 =
  match List.rev !marks with
  | [] -> 0.
  | first :: _ as ms ->
    let _, s0, n0 =
      List.fold_left (fun acc ((t, _, _) as m) -> if t <= t0 then m else acc) first ms
    in
    let _, s1, n1 =
      Option.value ~default:(List.hd !marks) (List.find_opt (fun (t, _, _) -> t >= t1) ms)
    in
    if n1 > n0 then float_of_int (s1 - s0) /. float_of_int (n1 - n0) else 0.

(* Steal of 2% or less is calm: one tick of a 1 s interval on 2 CPUs is
   0.5%. *)
let floor = 0.02

(* The elements of [xs], each with its stolen share, that were taken in
   calm time. *)
let calm xs =
  match xs with
  | [] -> []
  | _ ->
    let cut = Float.max floor (Util.median (Array.of_list (List.map snd xs))) in
    List.filter_map (fun (x, s) -> if s <= cut then Some x else None) xs
