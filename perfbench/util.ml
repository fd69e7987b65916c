(* Small shared helpers: clocks, order statistics, logging. *)

let now_ns = Telemetry.now_ns
let ms ns = float_of_int ns /. 1e6
let secs ns = float_of_int ns /. 1e9
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Linear-interpolated quantile (the "type 7" estimator); [nan] on an
   empty sample so a missing measurement cannot pass for a fast one. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* Median over whole windows of [window_ns] that satisfy [keep] of the
   completions per second, given completion times from [start]: a burst
   of outside load moves one window, not the run. *)
let windowed_rate ?(keep = fun _ -> true) ~start ~window_ns times =
  let counts = Hashtbl.create 64 in
  let last = ref (-1) in
  List.iter
    (fun t ->
      let w = (t - start) / window_ns in
      last := max !last w;
      Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w)))
    times;
  (* the last window is partial *)
  let full = List.filter keep (List.init (max 0 !last) Fun.id) in
  let rate w = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts w)) /. secs window_ns in
  median (Array.of_list (List.map rate full))

(* Median over windows of [window_ns] of the [q]-quantile of the values
   completed in each, given (completion time, value) pairs; the last,
   partial window joins the one before it, and windows without a value
   are left out. *)
let windowed_quantile ~start ~window_ns q samples =
  let last = List.fold_left (fun m (t, _) -> max m ((t - start) / window_ns)) 0 samples in
  let n = max 1 last in
  let bins = Array.make n [] in
  List.iter (fun (t, v) -> let w = min (n - 1) ((t - start) / window_ns) in bins.(w) <- v :: bins.(w)) samples;
  median
    (Array.of_list
       (List.filter_map
          (fun b -> if b = [] then None else Some (quantile (Array.of_list b) q))
          (Array.to_list bins)))

(* Growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let length t = t.n
end

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let copy_file src dst =
  let data = read_file src in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc data)

(* Order-independent checksum of a tuple set: a sum of well-mixed
   per-tuple hashes, so any storage order gives the same value. *)
let tuple_hash tup =
  Array.fold_left
    (fun h v ->
      let z = (h lxor v) * 0x1E3779B97F4A7C15 in
      z lxor (z lsr 29))
    0x2545F491 tup

let set_checksum iter =
  let acc = ref 0 in
  iter (fun tup -> acc := !acc + tuple_hash tup);
  !acc
