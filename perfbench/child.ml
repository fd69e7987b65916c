(* The datalog_serve child process: spawn, readiness, resource readings,
   stop.  Every spawned pid is tracked so an exit on any path (including
   a failed check) kills and reaps it. *)

type t = {
  pid : int;
  sock : string;  (** relative Unix socket path of the query protocol *)
  msock : string option;  (** --serve-metrics socket, traced runs only *)
  dir : string;  (** --data-dir *)
  mutable reaped : bool;
}

let live : t list ref = ref []

let reap ?(grace_s = 20.) t =
  if not t.reaped then begin
    let deadline = Unix.gettimeofday () +. grace_s in
    let rec go () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid : int * Unix.process_status)
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    go ();
    t.reaped <- true;
    live := List.filter (fun c -> c != t) !live
  end

let kill t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap t
  end

let kill_all () = List.iter kill !live

let spawn ~exe ~sock ?msock ?storage ~dir ~log () =
  let args =
    [ exe; "--listen"; "unix:" ^ sock; "-j"; "2"; "--data-dir"; dir;
      "--durability"; "batch"; "--max-pending"; "1000000" ]
    @ (match storage with
      | Some k -> [ "--storage"; k ]
      | None -> [])
    @ match msock with
      | Some m -> [ "--serve-metrics"; "unix:" ^ m; "--serve-interval"; "100" ]
      | None -> []
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () -> Unix.create_process exe (Array.of_list args) null out out)
  in
  let t = { pid; sock; msock; dir; reaped = false } in
  live := t :: !live;
  t

(* Poll-connect until the server greets us; the child binds after WAL
   recovery, so this also waits out replay. *)
let connect ?(timeout_s = 120.) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Dl_client.connect ~timeout_s:120. (Telemetry_server.Unix_sock t.sock) with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ -> ()
      | _ ->
        t.reaped <- true;
        failwith ("datalog_serve exited during startup: " ^ e));
      if Unix.gettimeofday () > deadline then failwith ("datalog_serve not ready: " ^ e);
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let status_field pid key =
  let text = Util.read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun l ->
      match String.split_on_char ':' l with
      | [ k; v ] when k = key -> Scanf.sscanf (String.trim v) "%d" Option.some
      | _ -> None)
    (String.split_on_char '\n' text)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  match status_field pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

(* User + system CPU seconds consumed so far (clock ticks at 100 Hz). *)
let cpu_s pid =
  let text = Util.read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.

(* Graceful stop through the protocol (drains and fsyncs the WAL), then
   reap; SIGKILL only if it does not exit in time. *)
let shutdown t c =
  ignore (Dl_client.shutdown c : (Dl_client.reply, string) result);
  Dl_client.close c;
  reap t

(* /metrics of a traced child, as (name, labels, value) triples; the
   labels are kept verbatim, e.g. [le="1023"]. *)
let scrape t =
  match t.msock with
  | None -> []
  | Some m -> (
    match Telemetry_server.fetch (Telemetry_server.Unix_sock m) "/metrics" with
    | Ok (200, body) ->
      List.filter_map
        (fun l ->
          if l = "" || l.[0] = '#' then None
          else
            match String.rindex_opt l ' ' with
            | None -> None
            | Some i ->
              let key = String.sub l 0 i in
              let v = String.sub l (i + 1) (String.length l - i - 1) in
              let name, labels =
                match String.index_opt key '{' with
                | Some j -> (String.sub key 0 j, String.sub key (j + 1) (String.length key - j - 2))
                | None -> (key, "")
              in
              Option.map (fun f -> (name, labels, f)) (float_of_string_opt v))
        (String.split_on_char '\n' body)
    | Ok (code, _) -> failwith (Printf.sprintf "/metrics answered %d" code)
    | Error e -> failwith ("/metrics: " ^ e))

(* Non-empty buckets of histogram [name] in a scrape, as (bucket index,
   samples): the exposition's cumulative [le] counts, differenced. *)
let scraped_buckets prom name =
  let cum =
    List.filter_map
      (fun (n, labels, v) ->
        if n <> name ^ "_bucket" then None
        else
          Scanf.sscanf_opt labels "le=%S" (fun le ->
              Option.map (fun le -> (le, int_of_float v)) (int_of_string_opt le))
          |> Option.join)
      prom
  in
  let cum = List.sort compare cum in
  let _, out =
    List.fold_left
      (fun (prev, acc) (le, c) -> (c, (Telemetry.Hist.bucket_of_value le, c - prev) :: acc))
      (0, []) cum
  in
  List.rev out

(* STATS as key -> value. *)
let stats c =
  match Dl_client.stats c with
  | Ok (Dl_client.Data (_, lines)) ->
    List.filter_map
      (fun l ->
        match String.index_opt l '=' with
        | Some i -> Some (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> None)
      lines
  | Ok _ -> failwith "STATS: unexpected reply"
  | Error e -> failwith ("STATS: " ^ e)

let stat_int st k =
  match List.assoc_opt k st with
  | Some v -> int_of_string v
  | None -> failwith ("STATS lacks " ^ k)

(* Filesystem type of [path], from the longest matching mount point. *)
let fs_type path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  match Util.read_file "/proc/mounts" with
  | exception _ -> "unknown"
  | text ->
    let best = ref ("", "unknown") in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | _ :: mnt :: ty :: _ ->
          let pre = if mnt = "/" then "/" else mnt ^ "/" in
          if (mnt = "/" || String.starts_with ~prefix:pre (abs ^ "/"))
             && String.length mnt >= String.length (fst !best)
          then best := (mnt, ty)
        | _ -> ())
      (String.split_on_char '\n' text);
    snd !best

(* Machine-wide CPU time counters from /proc/stat: (steal, total) ticks.
   Steal is time the hypervisor ran someone else while this machine's
   CPUs had work; it slows every timing here without a code change. *)
let cpu_ticks () =
  match String.split_on_char '\n' (Util.read_file "/proc/stat") with
  | line :: _ -> (
    match List.filter (fun f -> f <> "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = Array.of_list (List.map int_of_string fields) in
      let total = ref 0 in
      Array.iteri (fun i x -> if i < 8 then total := !total + x) v;
      (v.(7), !total)
    | _ -> (0, 0))
  | [] -> (0, 0)
  | exception _ -> (0, 0)
