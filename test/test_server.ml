(* Query-server tests: protocol totality (parse_request/parse_fact must
   survive arbitrary bytes), render/parse round-trips, the closed error-code
   set, hostile input over a live socket (structured ERR, never a dropped
   connection), and — the load-bearing one — four client domains mixing
   ASSERT and QUERY against one resident server, audited for exact
   cardinality and zero phase violations. *)

module P = Dl_proto

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- pure protocol ------------------------------------------------- *)

let test_parse_verbs () =
  (match P.parse_request "HELLO dlserve/1" with
  | Ok (P.Hello v) -> check Alcotest.string "hello token" P.version v
  | _ -> Alcotest.fail "HELLO did not parse");
  (match P.parse_request "rules 3" with
  | Ok (P.Rules 3) -> ()
  | _ -> Alcotest.fail "lowercase RULES did not parse");
  (match P.parse_request "Load\tedge  2" with
  | Ok (P.Load ("edge", 2)) -> ()
  | _ -> Alcotest.fail "LOAD with mixed whitespace did not parse");
  (match P.parse_request "ASSERT kv 1 -2" with
  | Ok (P.Assert_ ("kv", [| P.V_int 1; P.V_int (-2) |])) -> ()
  | _ -> Alcotest.fail "ASSERT fields did not parse");
  (match P.parse_request "assert kv(1, foo)" with
  | Ok (P.Assert_ ("kv", [| P.V_int 1; P.V_sym "foo" |])) -> ()
  | _ -> Alcotest.fail "ASSERT atom sugar did not parse");
  (match P.parse_request "QUERY out(_, 7)" with
  | Ok (P.Query ("out", [| P.P_any; P.P_val (P.V_int 7) |])) -> ()
  | _ -> Alcotest.fail "QUERY atom sugar / wildcard did not parse");
  (match P.parse_request "query out _ sym" with
  | Ok (P.Query ("out", [| P.P_any; P.P_val (P.V_sym "sym") |])) -> ()
  | _ -> Alcotest.fail "QUERY flat form did not parse");
  List.iter
    (fun (line, want) ->
      match (P.parse_request line, want) with
      | Ok P.Stats, `Stats | Ok P.Ping, `Ping | Ok P.Shutdown, `Shutdown -> ()
      | _ -> Alcotest.failf "%S did not parse to its verb" line)
    [ ("STATS", `Stats); ("pInG", `Ping); ("shutdown", `Shutdown) ]

let test_parse_errors () =
  let bad line =
    match P.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S parsed but should not" line
  in
  bad "";
  bad "   ";
  bad "FROBNICATE 1 2";
  bad "RULES";
  bad "RULES many";
  bad "RULES -1";
  bad (Printf.sprintf "RULES %d" (P.max_batch + 1));
  bad "LOAD edge";
  bad "ASSERT";
  bad "QUERY";
  (* unterminated atom syntax *)
  bad "ASSERT kv(1, 2";
  (* an atom-form field with interior whitespace cannot round-trip
     through whitespace-tokenised fact lines (the WAL's on-disk form) *)
  bad "ASSERT kv(1, b c)";
  bad "QUERY kv(a b, _)";
  (match P.parse_fact "1 2 xyz" with
  | Ok [| P.V_int 1; P.V_int 2; P.V_sym "xyz" |] -> ()
  | _ -> Alcotest.fail "fact line did not parse");
  (match P.parse_fact "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty fact line parsed")

(* Deterministic byte-string fuzz: totality means no exception, ever. *)
let test_parse_total_fuzz () =
  let st = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    st := x;
    x land max_int
  in
  for _ = 1 to 5_000 do
    let len = next () mod 120 in
    let s =
      String.init len (fun _ ->
          (* full byte range, including NUL and control characters *)
          Char.chr (next () mod 256))
    in
    (match P.parse_request s with Ok _ | Error _ -> ());
    match P.parse_fact s with Ok _ | Error _ -> ()
  done;
  (* structured garbage that nearly parses *)
  List.iter
    (fun s -> match P.parse_request s with Ok _ | Error _ -> ())
    [
      "ASSERT kv(((((";
      "QUERY x(,,,,)";
      "LOAD " ^ String.make 100 'x' ^ " 99999999999999999999";
      "ASSERT kv " ^ String.concat " " (List.init 200 string_of_int);
      String.make 300 '(';
    ]

let test_response_roundtrip () =
  let render r =
    let b = Buffer.create 64 in
    P.render b r;
    Buffer.contents b
  in
  (match String.split_on_char '\n' (render (P.R_ok "hi there")) with
  | line :: _ -> (
    match P.parse_response_line line with
    | `Ok "hi there" -> ()
    | _ -> Alcotest.fail "OK did not round-trip")
  | [] -> Alcotest.fail "render produced nothing");
  (match
     String.split_on_char '\n' (render (P.R_data ("2 rows", [ "a\tb"; "c\td" ])))
   with
  | status :: rest -> (
    (match P.parse_response_line status with
    | `Data (2, "2 rows") -> ()
    | _ -> Alcotest.fail "DATA status did not round-trip");
    (* payload lines then END, then the trailing-newline split remainder *)
    match rest with
    | [ "a\tb"; "c\td"; "END"; "" ] -> ()
    | _ -> Alcotest.fail "DATA payload framing wrong")
  | [] -> Alcotest.fail "render produced nothing");
  (match
     String.split_on_char '\n' (render (P.R_err (P.E_busy, "try later")))
   with
  | line :: _ -> (
    match P.parse_response_line line with
    | `Err ("busy", "try later") -> ()
    | _ -> Alcotest.fail "ERR did not round-trip")
  | [] -> Alcotest.fail "render produced nothing");
  match P.parse_response_line "?? mystery line" with
  | `Err ("garbled", _) -> ()
  | _ -> Alcotest.fail "garbled line not classified as garbled"

let test_err_codes () =
  let all =
    [
      P.E_parse; P.E_proto; P.E_program; P.E_no_program; P.E_relation;
      P.E_arity; P.E_busy; P.E_shutdown; P.E_internal;
    ]
  in
  let names = List.map P.err_name all in
  (* names are distinct and round-trip through err_of_name *)
  checki "distinct names" (List.length all)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun c ->
      match P.err_of_name (P.err_name c) with
      | Some c' -> checkb "code round-trips" true (c = c')
      | None -> Alcotest.failf "err_of_name %S = None" (P.err_name c))
    all;
  checkb "unknown name rejected" true (P.err_of_name "no-such-code" = None)

(* --- live server ---------------------------------------------------- *)

let fresh_addr =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "test-dlserve-%d-%d.sock" (Unix.getpid ()) !n)
    in
    (try Sys.remove path with Sys_error _ -> ());
    match Telemetry_server.parse_addr ("unix:" ^ path) with
    | Ok a -> a
    | Error m -> Alcotest.failf "bad addr: %s" m

let with_server ?(kind = Storage.Btree) ?(workers = 2) ?(flip_pending = 32)
    ?(flip_interval_ms = 5) () k =
  let addr = fresh_addr () in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.kind;
      workers;
      flip_pending;
      flip_interval_ms;
      check_phases = true;
    }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) (fun () -> k addr)

let with_client addr k =
  match Dl_client.connect addr with
  | Error m -> Alcotest.failf "connect: %s" m
  | Ok c -> Fun.protect ~finally:(fun () -> Dl_client.close c) (fun () -> k c)

let program =
  ".decl kv(a:number, b:number)\n.input kv\n\
   .decl out(a:number, b:number)\n.output out\n\
   out(x, y) :- kv(x, y).\n"

let install c =
  match Dl_client.rules c program with
  | Ok (Dl_client.Ok_ _) -> ()
  | Ok (Dl_client.Err (code, m)) -> Alcotest.failf "RULES: %s %s" code m
  | Ok _ | Error _ -> Alcotest.failf "RULES: bad reply"

(* Every hostile line gets a structured ERR on the expected code and the
   connection stays usable: PING must still answer afterwards. *)
let test_hostile_lines () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  let expect_err line code =
    (match Dl_client.request c line with
    | Ok (Dl_client.Err (got, _)) ->
      check Alcotest.string (Printf.sprintf "code for %S" line) code got
    | Ok _ -> Alcotest.failf "%S did not produce ERR" line
    | Error m -> Alcotest.failf "%S killed the connection: %s" line m);
    match Dl_client.ping c with
    | Ok (Dl_client.Ok_ _) -> ()
    | _ -> Alcotest.failf "connection dead after %S" line
  in
  expect_err "FROBNICATE 1 2" "parse";
  expect_err "" "parse";
  expect_err "\000\001\255garbage\127" "parse";
  expect_err "QUERY out(_, _)" "no-program";
  expect_err "ASSERT kv 1 2" "no-program";
  expect_err (Printf.sprintf "RULES %d" (P.max_batch + 1)) "parse";
  install c;
  expect_err "ASSERT nosuch 1 2" "relation";
  expect_err "QUERY nosuch(_)" "relation";
  expect_err "ASSERT kv 1" "arity";
  expect_err "QUERY kv(_, _, _)" "arity";
  (* a broken program must not dislodge the installed one *)
  (match Dl_client.rules c ":- broken(" with
  | Ok (Dl_client.Err ("program", _)) -> ()
  | _ -> Alcotest.fail "broken program not rejected as program error");
  match Dl_client.assert_fact c "kv" [ "1"; "2" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "previous program lost after rejected RULES"

(* An oversized request line gets a structured ERR proto and then — since
   resynchronising inside an unbounded stream is not attempted — a
   deliberate close; the server itself must stay up. *)
let test_oversized_line () =
  with_server () @@ fun addr ->
  (with_client addr @@ fun c ->
   match Dl_client.request c ("PING " ^ String.make (P.max_line + 64) 'x') with
   | Ok (Dl_client.Err ("proto", _)) -> ()
   | Ok _ -> Alcotest.fail "oversized line did not produce ERR proto"
   | Error m -> Alcotest.failf "no structured reply before close: %s" m);
  (* fresh connections still served *)
  with_client addr @@ fun c ->
  match Dl_client.ping c with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "server dead after oversized line"

(* Read-your-writes at batch granularity: a query after an ASSERT on the
   same connection must see the fact (the query forces a flip). *)
let test_read_your_writes () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  install c;
  (match Dl_client.assert_fact c "kv" [ "11"; "22" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "assert failed");
  (match Dl_client.query c "out" [ "11"; "_" ] with
  | Ok (Dl_client.Data (_, [ "11\t22" ])) -> ()
  | Ok (Dl_client.Data (_, rows)) ->
    Alcotest.failf "expected one row, got %d" (List.length rows)
  | _ -> Alcotest.fail "query failed");
  (* LOAD batch, then the duplicate is deduplicated *)
  (match Dl_client.load c "kv" [ "11 22"; "33 44"; "55 66" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "load failed");
  match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) -> checki "cardinality" 3 (List.length rows)
  | _ -> Alcotest.fail "audit query failed"

let stats_pairs c =
  match Dl_client.stats c with
  | Ok (Dl_client.Data (_, lines)) ->
    List.map
      (fun l ->
        match String.index_opt l '=' with
        | Some i -> (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
        | None -> Alcotest.failf "STATS line without '=': %S" l)
      lines
  | _ -> Alcotest.fail "STATS: bad reply"

let stats_field c name = List.assoc_opt name (stats_pairs c)

(* Raw-socket access, for tests that must pipeline requests without
   waiting for replies (Dl_client is strictly request/reply). *)
let with_raw_conn addr k =
  let path =
    match addr with
    | Telemetry_server.Unix_sock p -> p
    | _ -> Alcotest.fail "expected a unix-socket address"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let (_ : string) = input_line ic (* greeting *) in
      let send s =
        let n = String.length s in
        if Unix.write_substring fd s 0 n <> n then
          Alcotest.fail "short raw write"
      in
      k send ic)

(* A RULES install does not flush queued queries; pipelining QUERY then a
   program that drops/re-declares the queried relations — all in one
   write, so both parse before the flip runs — must yield structured
   errors on the queries, never kill the server domain. *)
let test_rules_swap_queued_query () =
  with_server () @@ fun addr ->
  (with_client addr @@ fun c -> install c);
  (with_raw_conn addr @@ fun send ic ->
   send
     "QUERY out _ _\nQUERY kv _ _\nRULES 2\n.decl kv(a:number)\n.input kv\n";
   (* the RULES ack is sent at install time, before the queries run *)
   let rules_reply = input_line ic in
   checkb "RULES ack" true (String.length rules_reply > 2
                           && String.sub rules_reply 0 2 = "OK");
   let expect_code want =
     match P.parse_response_line (input_line ic) with
     | `Err (code, _) -> check Alcotest.string "queued query code" want code
     | _ -> Alcotest.failf "queued query did not come back as ERR %s" want
   in
   expect_code "relation" (* out: dropped by the new program *);
   expect_code "arity" (* kv: re-declared at arity 1, query has 2 pats *));
  (* the load-bearing assertion: the server domain survived *)
  with_client addr @@ fun c ->
  match Dl_client.ping c with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "server dead after program swap under queued queries"

(* LOAD must hold its announced rows against max_pending from the header
   on, so ingest interleaved mid-batch cannot overshoot the cap; the hold
   converts to pending at completion and admission reopens after a flip. *)
let test_load_reserves_pending () =
  let addr = fresh_addr () in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.workers = 2;
      flip_pending = 1000;
      flip_interval_ms = 1000;
      max_pending = 10;
    }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
    (with_client addr @@ fun c -> install c);
    with_raw_conn addr @@ fun send ic ->
    send "LOAD kv 10\n1 1\n2 2\n3 3\n4 4\n5 5\n" (* 5 of 10 lines *);
    with_client addr @@ fun c2 ->
    let rec await_reservation tries =
      if tries = 0 then Alcotest.fail "reservation never visible in STATS";
      match stats_field c2 "reserved_ingest" with
      | Some "10" -> ()
      | _ ->
        Unix.sleepf 0.01;
        await_reservation (tries - 1)
    in
    await_reservation 500;
    (* pending(0) + reserved(10) + 1 > 10: rejected, not admitted *)
    (match Dl_client.assert_fact c2 "kv" [ "77"; "88" ] with
    | Ok (Dl_client.Err ("busy", _)) -> ()
    | _ -> Alcotest.fail "mid-batch assert admitted past the cap");
    send "6 6\n7 7\n8 8\n9 9\n10 10\n";
    (match P.parse_response_line (input_line ic) with
    | `Ok _ -> ()
    | _ -> Alcotest.fail "completed LOAD not acked");
    (* a query forces a flip; pending drains and admission reopens *)
    (match Dl_client.query c2 "out" [ "_"; "_" ] with
    | Ok (Dl_client.Data (_, rows)) -> checki "loaded rows" 10 (List.length rows)
    | _ -> Alcotest.fail "post-load query failed");
    match Dl_client.assert_fact c2 "kv" [ "77"; "88" ] with
    | Ok (Dl_client.Ok_ _) -> ()
    | _ -> Alcotest.fail "admission did not reopen after the flip"

(* A batch whose accumulated payload exceeds max_batch_bytes is rejected
   with ERR proto (its buffered lines dropped) and the session survives. *)
let test_batch_bytes_cap () =
  with_server () @@ fun addr ->
  with_client addr @@ fun c ->
  install c;
  let line = String.make P.max_line 'x' in
  let n = (P.max_batch_bytes / P.max_line) + 1 in
  (match Dl_client.load c "kv" (List.init n (fun _ -> line)) with
  | Ok (Dl_client.Err ("proto", _)) -> ()
  | Ok _ -> Alcotest.fail "oversized batch not rejected as ERR proto"
  | Error m -> Alcotest.failf "oversized batch killed the connection: %s" m);
  match Dl_client.ping c with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "connection dead after oversized batch"

(* The acceptance test: N client domains mix ASSERT and QUERY against one
   server; every acked fact is unique, so the served relation must equal
   the acked set exactly, with zero phase violations. *)
let test_concurrent_clients () =
  let domains = 4 and per = 120 in
  with_server ~flip_pending:16 ~flip_interval_ms:2 () @@ fun addr ->
  (with_client addr @@ fun c -> install c);
  let acked = Array.make domains 0 in
  let clients =
    List.init domains (fun w ->
        Domain.spawn (fun () ->
            with_client addr @@ fun c ->
            for i = 0 to per - 1 do
              (* (i, w) is globally unique per client *)
              (match
                 Dl_client.assert_fact c "kv"
                   [ string_of_int i; string_of_int w ]
               with
              | Ok (Dl_client.Ok_ _) -> acked.(w) <- acked.(w) + 1
              | Ok (Dl_client.Err (code, m)) ->
                Alcotest.failf "client %d assert: %s %s" w code m
              | Ok _ | Error _ -> Alcotest.failf "client %d assert died" w);
              (* interleave reads: row count for this client only grows *)
              if i land 15 = 0 then
                match Dl_client.query c "out" [ "_"; string_of_int w ] with
                | Ok (Dl_client.Data (_, rows)) ->
                  if List.length rows > i + 1 then
                    Alcotest.failf "client %d sees %d rows at i=%d" w
                      (List.length rows) i
                | Ok (Dl_client.Err (code, m)) ->
                  Alcotest.failf "client %d query: %s %s" w code m
                | Ok _ | Error _ -> Alcotest.failf "client %d query died" w
            done))
  in
  List.iter Domain.join clients;
  Array.iteri (fun w n -> checki (Printf.sprintf "client %d acks" w) per n)
    acked;
  with_client addr @@ fun c ->
  (match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) ->
    checki "total served" (domains * per) (List.length rows);
    let seen = Hashtbl.create (domains * per) in
    List.iter (fun r -> Hashtbl.replace seen r ()) rows;
    for w = 0 to domains - 1 do
      for i = 0 to per - 1 do
        let row = Printf.sprintf "%d\t%d" i w in
        if not (Hashtbl.mem seen row) then
          Alcotest.failf "acked fact %S not served" row
      done
    done
  | _ -> Alcotest.fail "audit query failed");
  match stats_field c "phase_violations" with
  | Some "0" -> ()
  | Some v -> Alcotest.failf "phase_violations=%s" v
  | None -> Alcotest.fail "STATS missing phase_violations"

(* SHUTDOWN drains: the issuing client gets OK, the server exits, and the
   socket stops accepting. *)
let test_shutdown () =
  let addr = fresh_addr () in
  let cfg =
    { (Dl_server.default_config addr) with Dl_server.workers = 2 }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
    (with_client addr @@ fun c ->
     match Dl_client.shutdown c with
     | Ok (Dl_client.Ok_ _) -> ()
     | _ -> Alcotest.fail "SHUTDOWN: bad reply");
    Dl_server.wait srv;
    (match Dl_client.connect addr with
    | Error _ -> ()
    | Ok c ->
      Dl_client.close c;
      Alcotest.fail "server still accepting after shutdown")

(* --- one registry: STATS and the telemetry surfaces agree ------------ *)

let dl_server_gauges gauges =
  List.filter_map
    (fun (n, v) ->
      let p = "dl_server." in
      if String.starts_with ~prefix:p n then
        Some (String.sub n (String.length p) (String.length n - String.length p), v)
      else None)
    gauges

(* the members of a JSON object of gauges (crash dump, /snapshot.json) *)
let json_gauges = function
  | Some (Json.Obj kvs) ->
    dl_server_gauges
      (List.filter_map
         (function n, Json.Float v -> Some (n, v) | _ -> None)
         kvs)
  | _ -> []

(* [repro_gauge{gauge="dl_server.NAME"} V] samples of a /metrics body *)
let scraped_gauges body =
  dl_server_gauges
    (List.filter_map
       (fun l -> Scanf.sscanf_opt l "repro_gauge{gauge=%S} %f" (fun n v -> (n, v)))
       (String.split_on_char '\n' body))

let stats_keys_base =
  [
    "proto"; "program"; "generation"; "stale"; "pending_ingest";
    "reserved_ingest"; "queued_queries"; "clients"; "conns_total"; "requests";
    "busy_rejections"; "flips"; "flip_failures"; "phase_violations"; "workers";
    "storage"; "durability";
  ]

let stats_keys_wal =
  [
    "wal_dir"; "wal_segments"; "wal_records"; "wal_bytes"; "wal_fsyncs";
    "wal_compactions"; "wal_errors"; "wal_torn"; "recovered_records";
    "recovered_segments"; "recovered_bytes"; "recovered_commit_seq";
    "recovered_torn_tail";
  ]

let start_server ?data_dir () =
  let addr = fresh_addr () in
  let cfg =
    {
      (Dl_server.default_config addr) with
      Dl_server.workers = 2;
      max_pending = 4;
      check_phases = true;
      data_dir;
    }
  in
  match Dl_server.start cfg with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv -> (srv, addr)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Drive RULES, LOAD, QUERY and one busy rejection, then, with the server
   quiescent, every integer STATS entry must equal its dl_server gauge in
   a Telemetry snapshot, a crash dump, and the monitor's /metrics and
   /snapshot.json. *)
let check_surfaces mon ?data_dir () =
  let srv, addr = start_server ?data_dir () in
  Fun.protect ~finally:(fun () -> Dl_server.stop srv) @@ fun () ->
  with_client addr @@ fun c ->
  install c;
  (match Dl_client.load c "kv" [ "1 2"; "3 4"; "5 6" ] with
  | Ok (Dl_client.Ok_ _) -> ()
  | _ -> Alcotest.fail "LOAD failed");
  (match Dl_client.query c "out" [ "_"; "_" ] with
  | Ok (Dl_client.Data (_, rows)) -> checki "rows" 3 (List.length rows)
  | _ -> Alcotest.fail "QUERY failed");
  (match Dl_client.load c "kv" [ "7 8"; "9 10"; "11 12"; "13 14"; "15 16" ] with
  | Ok (Dl_client.Err ("busy", _)) -> ()
  | _ -> Alcotest.fail "LOAD over max_pending not rejected busy");
  let stats = stats_pairs c in
  let wal = if data_dir = None then [] else stats_keys_wal in
  check
    Alcotest.(list string)
    "STATS keys and order"
    (stats_keys_base @ wal @ [ "rel.kv"; "rel.out" ])
    (List.map fst stats);
  checki "one busy rejection" 1 (int_of_string (List.assoc "busy_rejections" stats));
  checkb "flipped" true (int_of_string (List.assoc "flips" stats) >= 1);
  let ints =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix:"rel." k then None
        else Option.map (fun n -> (k, float_of_int n)) (int_of_string_opt v))
      stats
  in
  let pairs = Alcotest.(list (pair string (float 0.))) in
  check pairs "snapshot gauges = STATS" ints
    (dl_server_gauges (Telemetry.snapshot ()).Telemetry.gauges);
  check pairs "crash-dump gauges = STATS" ints
    (json_gauges (Json.member "gauges" (Flight.to_json ~reason:"test" ~seed:0 ())));
  let fetch path =
    match Telemetry_server.fetch (Telemetry_server.bound mon) path with
    | Ok (200, body) -> body
    | Ok (code, _) -> Alcotest.failf "%s answered %d" path code
    | Error m -> Alcotest.failf "%s: %s" path m
  in
  check pairs "/metrics gauges = STATS" ints (scraped_gauges (fetch "/metrics"));
  (* /snapshot.json shows the last completed window: wait for one sampled
     after the STATS reply *)
  let window () =
    Option.bind
      (Json.member "window" (Json.of_string (fetch "/snapshot.json")))
      (Json.member "gauges")
    |> json_gauges
  in
  let deadline = Unix.gettimeofday () +. 2. in
  let rec await () =
    let w = window () in
    if w = ints || Unix.gettimeofday () > deadline then w
    else (
      Unix.sleepf 0.02;
      await ())
  in
  check pairs "/snapshot.json gauges = STATS" ints (await ())

let test_surfaces_agree () =
  let mon =
    match Telemetry_server.start ~interval_ms:20 (fresh_addr ()) with
    | Ok m -> m
    | Error e -> Alcotest.failf "monitor start: %s" e
  in
  Fun.protect ~finally:(fun () -> Telemetry_server.stop mon) @@ fun () ->
  check_surfaces mon ();
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "test-dlserve-wal-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (check_surfaces mon ~data_dir:dir);
  (* the last server started owns the gauge group: stopping an earlier one
     must not take the survivor's gauges down *)
  let a, _ = start_server () in
  let b, baddr = start_server () in
  Dl_server.stop a;
  (with_client baddr @@ fun c ->
   let requests = int_of_string (List.assoc "requests" (stats_pairs c)) in
   check
     Alcotest.(option (float 0.))
     "survivor's gauges live"
     (Some (float_of_int requests))
     (List.assoc_opt "requests"
        (dl_server_gauges (Telemetry.snapshot ()).Telemetry.gauges)));
  Dl_server.stop b;
  checki "no gauges once every server stopped" 0
    (List.length (dl_server_gauges (Telemetry.snapshot ()).Telemetry.gauges))

(* Indexed QUERY against the reference evaluator: every shipped program,
   random input facts, random patterns (wildcards, bound prefixes and
   suffixes, fully bound, values and symbols no fact holds).  Each reply
   must equal the [Naive] fixed point filtered by the pattern, on the
   paper's tree and on the hash set, with zero phase violations. *)
let programs_dir =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "distances.dl"))
    [ "examples/programs"; "../examples/programs"; "../../examples/programs";
      "../../../examples/programs" ]

let test_indexed_query_vs_naive () =
  let dir =
    match programs_dir with
    | Some d -> d
    | None -> Alcotest.fail "examples/programs not found from the test sandbox"
  in
  let files =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".dl")
         (Array.to_list (Sys.readdir dir)))
  in
  let seed = ref 0x5eed in
  let r bound =
    seed := Key.mix64 (!seed + 0x2545F4914F6CDD1D);
    !seed mod bound
  in
  List.iter
    (fun kind ->
      List.iter
        (fun file ->
          let text =
            In_channel.with_open_bin (Filename.concat dir file)
              In_channel.input_all
          in
          let prog = Parser.parse_string text in
          let facts =
            List.concat_map
              (fun (d : Ast.decl) ->
                if not d.is_input then []
                else
                  List.init 30 (fun _ ->
                      (d.name, Array.init d.arity (fun _ -> r 8))))
              prog.decls
          in
          let expected = Naive.run prog ~extra_facts:facts in
          let label what =
            Printf.sprintf "%s %s: %s" (Storage.kind_name kind) file what
          in
          with_server ~kind () @@ fun addr ->
          with_client addr @@ fun c ->
          (match Dl_client.rules c text with
          | Ok (Dl_client.Ok_ _) -> ()
          | _ -> Alcotest.failf "%s" (label "RULES failed"));
          List.iter
            (fun (d : Ast.decl) ->
              let rows =
                List.filter_map
                  (fun (rel, tup) ->
                    if rel <> d.name then None
                    else
                      Some
                        (String.concat " "
                           (Array.to_list (Array.map string_of_int tup))))
                  facts
              in
              if rows <> [] then
                match Dl_client.load c d.name rows with
                | Ok (Dl_client.Ok_ _) -> ()
                | _ -> Alcotest.failf "%s" (label ("LOAD " ^ d.name)))
            prog.decls;
          List.iter
            (fun (d : Ast.decl) ->
              let all =
                Option.value ~default:[] (Hashtbl.find_opt expected d.name)
              in
              let patterns =
                List.init d.arity (fun _ -> "_")
                :: List.init 12 (fun _ ->
                       List.init d.arity (fun _ ->
                           match r 4 with
                           | 0 | 1 -> "_"
                           | 2 -> string_of_int (r 8)
                           | _ -> if r 2 = 0 then "99" else "nosuch"))
              in
              List.iter
                (fun pat ->
                  let want =
                    List.sort compare
                      (List.filter_map
                         (fun tup ->
                           if
                             List.for_all2
                               (fun p v -> p = "_" || p = string_of_int v)
                               pat (Array.to_list tup)
                           then
                             Some
                               (String.concat "\t"
                                  (Array.to_list (Array.map string_of_int tup)))
                           else None)
                         all)
                  in
                  match Dl_client.query c d.name pat with
                  | Ok (Dl_client.Data (_, rows)) ->
                    check
                      Alcotest.(list string)
                      (label ("QUERY " ^ d.name ^ " " ^ String.concat " " pat))
                      want (List.sort compare rows)
                  | _ -> Alcotest.failf "%s" (label ("QUERY " ^ d.name)))
                patterns)
            prog.decls;
          match stats_field c "phase_violations" with
          | Some "0" -> ()
          | v ->
            Alcotest.failf "%s" (label ("phase_violations=" ^ Option.value ~default:"?" v)))
        files)
    [ Storage.Btree; Storage.Hashset ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "server"
    [
      ( "proto",
        [
          tc "verbs parse" `Quick test_parse_verbs;
          tc "malformed requests rejected" `Quick test_parse_errors;
          tc "parse is total under fuzz" `Quick test_parse_total_fuzz;
          tc "response round-trip" `Quick test_response_roundtrip;
          tc "error codes closed set" `Quick test_err_codes;
        ] );
      ( "server",
        [
          tc "hostile lines yield structured ERR" `Quick test_hostile_lines;
          tc "oversized line contained" `Quick test_oversized_line;
          tc "read-your-writes" `Quick test_read_your_writes;
          tc "program swap with queued queries" `Quick
            test_rules_swap_queued_query;
          tc "LOAD reserves against max_pending" `Quick
            test_load_reserves_pending;
          tc "batch payload byte cap" `Quick test_batch_bytes_cap;
          tc "concurrent clients exact audit" `Quick test_concurrent_clients;
          tc "indexed QUERY = naive + filter" `Quick test_indexed_query_vs_naive;
          tc "shutdown drains" `Quick test_shutdown;
          tc "STATS = dl_server gauges on every surface" `Quick
            test_surfaces_agree;
        ] );
    ]
