(* In-memory spans for the traced run.  The benchmark opens a span around
   each of its own calls into a layer's public functions (client requests,
   engine phases, replays); the program under test is never instrumented.
   Every span carries its parent and a request id; {!write} dumps them as a
   Chrome trace at exit and {!self_times} folds them into per-layer self
   time (a span's duration minus its children's). *)

type span = {
  id : int;
  parent : int;
  rid : int;
  layer : string;
  name : string;
  t0 : int;
  mutable t1 : int;
}

let on = ref false
let recorded = ref []
let next_id = ref 0
let none = { id = 0; parent = 0; rid = 0; layer = ""; name = ""; t0 = 0; t1 = 0 }

let start ?(parent = none) ?(rid = 0) layer name =
  if not !on then none
  else begin
    incr next_id;
    let s =
      { id = !next_id; parent = parent.id; rid; layer; name; t0 = Util.now_ns (); t1 = 0 }
    in
    recorded := s :: !recorded;
    s
  end

let stop s = if s.id > 0 then s.t1 <- Util.now_ns ()

let with_ ?parent ?rid layer name f =
  let s = start ?parent ?rid layer name in
  Fun.protect ~finally:(fun () -> stop s) (fun () -> f s)

let closed () = List.filter (fun s -> s.t1 > 0) (List.rev !recorded)
let count () = List.length !recorded

(* Per-layer (total_ns, self_ns, spans), sorted by self time. *)
let self_times () =
  let spans = closed () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent > 0 then
        Hashtbl.replace child s.parent
          ((s.t1 - s.t0) + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
    spans;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 - s.t0 in
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt child s.id) in
      let tot, sf, n =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc s.layer)
      in
      Hashtbl.replace acc s.layer (tot + dur, sf + max 0 self, n + 1))
    spans;
  let l = Hashtbl.fold (fun k (t, sf, n) a -> (k, t, sf, n) :: a) acc [] in
  List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a) l

let write path =
  let open Telemetry.Json in
  let spans = closed () in
  let base = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let ev s =
    Obj
      [
        ("name", String s.name);
        ("cat", String s.layer);
        ("ph", String "X");
        ("ts", Float (float_of_int (s.t0 - base) /. 1e3));
        ("dur", Float (float_of_int (s.t1 - s.t0) /. 1e3));
        ("pid", Int 1);
        ("tid", Int 1);
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent); ("rid", Int s.rid) ]);
      ]
  in
  let self =
    List.map
      (fun (layer, tot, sf, n) ->
        Obj
          [
            ("layer", String layer);
            ("total_ms", Float (Util.ms tot));
            ("self_ms", Float (Util.ms sf));
            ("spans", Int n);
          ])
      (self_times ())
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output oc (Obj [ ("traceEvents", List (List.map ev spans)); ("self_time", List self) ]))
