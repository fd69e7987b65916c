(* A select-driven protocol client.  Unlike [Dl_client] (one blocking
   request at a time) a connection here may carry any number of requests
   in flight: {!send} never waits for a reply, and replies are matched to
   requests FIFO as {!pump} reads them.  One domain multiplexes every
   connection of a workload through {!wait}, so the generator stays a
   single light process next to the server it measures. *)

type req = {
  due : int;  (** when the request was due (ns) *)
  sent : int;  (** when it was written *)
  span : Spans.span;
  k : (Dl_client.reply, string) result -> int -> unit;
      (** called with the reply and the receive time *)
}

type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  mutable greeted : bool;
  mutable data : (string * int * string list) option;
      (** an open DATA reply: info, rows still expected, rows so far *)
  pending : req Queue.t;
  mutable alive : bool;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  {
    fd;
    chunk = Bytes.create 65536;
    partial = Buffer.create 4096;
    greeted = false;
    data = None;
    pending = Queue.create ();
    alive = true;
  }

let in_flight t = Queue.length t.pending

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let fail_all t msg =
  close t;
  let now = Util.now_ns () in
  Queue.iter (fun r -> Spans.stop r.span; r.k (Error msg) now) t.pending;
  Queue.clear t.pending

let complete t reply =
  match Queue.take_opt t.pending with
  | None -> fail_all t "reply without a request"
  | Some r ->
    Spans.stop r.span;
    r.k (Ok reply) (Util.now_ns ())

let on_line t line =
  let n = String.length line in
  let line = if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line in
  if not t.greeted then begin
    if line = Dl_proto.greeting then t.greeted <- true
    else fail_all t ("unexpected greeting: " ^ line)
  end
  else
    match t.data with
    | Some (info, 0, rows) ->
      t.data <- None;
      if line = "END" then complete t (Dl_client.Data (info, List.rev rows))
      else fail_all t ("bad payload terminator: " ^ line)
    | Some (info, k, rows) -> t.data <- Some (info, k - 1, line :: rows)
    | None -> (
      match Dl_proto.parse_response_line line with
      | `Ok info -> complete t (Dl_client.Ok_ info)
      | `Err ("garbled", l) -> fail_all t ("garbled reply: " ^ l)
      | `Err (code, msg) -> complete t (Dl_client.Err (code, msg))
      | `Data (n, info) -> t.data <- Some (info, n, []))

(* Read what the socket holds (call when select reports it readable) and
   dispatch every complete reply. *)
let pump t =
  match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> fail_all t "connection closed by server"
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get t.chunk i = '\n' then begin
        Buffer.add_subbytes t.partial t.chunk !start (i - !start);
        let line = Buffer.contents t.partial in
        Buffer.clear t.partial;
        start := i + 1;
        if t.alive then on_line t line
      end
    done;
    if !start < n then Buffer.add_subbytes t.partial t.chunk !start (n - !start)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception e -> fail_all t (Printexc.to_string e)

(* Write requests (each a header plus its payload lines) with one write
   and queue their reply handlers in order.  One write puts them in one
   server read, so they are admitted together.  Requests are small next to
   the socket buffer, so the write does not wait on the server even while
   it is inside a flip. *)
let send_all ?(due = 0) t reqs =
  let now = Util.now_ns () in
  let b = Bytes.unsafe_of_string (String.concat "" (List.map (fun (text, _, _) -> text) reqs)) in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write t.fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  let fail msg =
    List.iter
      (fun (_, span, k) ->
        Spans.stop span;
        k (Error msg) now)
      reqs
  in
  if not t.alive then fail "connection closed"
  else
    match go 0 with
    | () ->
      List.iter
        (fun (_, span, k) ->
          Queue.add { due = (if due = 0 then now else due); sent = now; span; k } t.pending)
        reqs
    | exception e ->
      fail_all t (Printexc.to_string e);
      fail (Printexc.to_string e)

let send ?due ?(span = Spans.none) t text k = send_all ?due t [ (text, span, k) ]

(* Block until a connection is readable or [timeout_s] passes, then pump
   the readable ones. *)
let wait conns timeout_s =
  let fds = List.filter_map (fun c -> if c.alive then Some c.fd else None) conns in
  if fds = [] then ()
  else
    match Unix.select fds [] [] (Float.max 0. timeout_s) with
    | ready, _, _ -> List.iter (fun c -> if c.alive && List.mem c.fd ready then pump c) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let payload header lines =
  let b = Buffer.create 1024 in
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter (fun l -> Buffer.add_string b l; Buffer.add_char b '\n') lines;
  Buffer.contents b
