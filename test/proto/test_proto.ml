(* Wire-protocol suite: length-prefixed framing over a real socketpair
   (roundtrip, timeout, EOF, garbage, oversize) and the moqp 1 codec
   (request / server-message / piece roundtrips, percent-encoded algebraic
   instants, malformed input). *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module U = Moq_mod.Update
module Frame = Moq_proto.Frame
module Proto = Moq_proto.Proto

let q = Q.of_int
let vec l = Qvec.of_list (List.map Q.of_int l)
let pair () = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0

let fwrite fd s =
  match Frame.write fd s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "Frame.write: %s" (Frame.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let a, b = pair () in
  let r = Frame.reader b in
  let payloads =
    [ "x"; "HELLO moqp 1"; "multi\nline\npayload"; "sp ace \t tab";
      String.make 100_000 'z' ]
  in
  List.iter (fwrite a) payloads;
  List.iter
    (fun p ->
      match Frame.read r with
      | `Frame got -> Alcotest.(check string) "frame payload" p got
      | `Eof | `Timeout | `Garbage _ -> Alcotest.fail "expected a frame")
    payloads;
  Unix.close a;
  (match Frame.read r with
   | `Eof -> ()
   | _ -> Alcotest.fail "expected eof after peer close");
  Unix.close b

let test_frame_timeout () =
  let a, b = pair () in
  let r = Frame.reader b in
  (match Frame.read ~timeout:0.05 r with
   | `Timeout -> ()
   | _ -> Alcotest.fail "expected timeout on an idle peer");
  fwrite a "late";
  (match Frame.read ~timeout:5.0 r with
   | `Frame s -> Alcotest.(check string) "frame after timeout" "late" s
   | _ -> Alcotest.fail "expected the late frame");
  Unix.close a;
  Unix.close b

let write_raw fd s =
  ignore (Unix.write_substring fd s 0 (String.length s))

let test_frame_garbage () =
  let a, b = pair () in
  let r = Frame.reader b in
  write_raw a "nonsense without a length prefix\n";
  (match Frame.read r with
   | `Garbage _ -> ()
   | _ -> Alcotest.fail "expected garbage on a malformed prefix");
  Unix.close a;
  Unix.close b

let test_frame_oversize () =
  let a, b = pair () in
  let r = Frame.reader b in
  (* writing beyond the cap is refused locally, as a typed error *)
  (match Frame.write a (String.make (Frame.max_payload + 1) 'y') with
   | Error (Frame.Oversize { size; limit }) ->
     Alcotest.(check int) "oversize size" (Frame.max_payload + 1) size;
     Alcotest.(check int) "oversize limit" Frame.max_payload limit
   | Ok () -> Alcotest.fail "oversize write accepted"
   | Error e -> Alcotest.failf "wrong write error: %s" (Frame.error_to_string e));
  (* a peer announcing an oversize frame is rejected before allocating *)
  write_raw a (Printf.sprintf "%d x\n" (Frame.max_payload + 1));
  (match Frame.read r with
   | `Garbage (Frame.Oversize _) -> ()
   | _ -> Alcotest.fail "expected a typed oversize announcement");
  Unix.close a;
  Unix.close b

let test_frame_torn () =
  (* the peer vanishes mid-length-prefix *)
  let a, b = pair () in
  let r = Frame.reader b in
  write_raw a "123";
  Unix.close a;
  (match Frame.read r with
   | `Garbage Frame.Torn -> ()
   | _ -> Alcotest.fail "expected torn on a mid-prefix eof");
  Unix.close b;
  (* ... and mid-payload *)
  let a, b = pair () in
  let r = Frame.reader b in
  write_raw a "10 abc";
  Unix.close a;
  (match Frame.read r with
   | `Garbage Frame.Torn -> ()
   | _ -> Alcotest.fail "expected torn on a mid-payload eof");
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_token_codec () =
  let raw = "root(t^2 + -448/11*t + 663/11) in (1011/704, 337/176) ~ 1.53799" in
  let enc = Proto.encode_token raw in
  Alcotest.(check bool) "no spaces survive encoding" false
    (String.contains enc ' ');
  Alcotest.(check string) "decode inverts encode" raw (Proto.decode_token enc);
  let tricky = "a%b c\nd\te%%20" in
  Alcotest.(check string) "percent and whitespace" tricky
    (Proto.decode_token (Proto.encode_token tricky))

(* The escape formula [encode_token] had when it went through Printf. *)
let encode_token_formula s =
  let must_escape c = c = '%' || c = ' ' || c = '\n' || c = '\t' || c = '\r' in
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      if must_escape c then Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c))
      else Buffer.add_char b c)
    s;
  Buffer.contents b

(* Arbitrary bytes, weighted towards the escaped ones. *)
let arb_token_bytes =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size (0 -- 40)
        ~gen:(frequency [ (3, char); (2, oneofl [ '%'; ' '; '\n'; '\t'; '\r'; '2'; '0' ]) ]))

let prop_token_formula =
  QCheck.Test.make ~name:"encode_token = Printf formula, decode inverts it" ~count:1000
    arb_token_bytes (fun s ->
      let enc = Proto.encode_token s in
      enc = encode_token_formula s && Proto.decode_token enc = s)

(* The piece frames as they were rendered before one buffer: each piece
   the String.concat of its tokens, the frame its head and its pieces
   joined by newlines.  It stays as the oracle of the one-buffer renderer,
   which reuses a physically shared OID list's text. *)
let render_piece_concat = function
  | Proto.P_at (i, oids) ->
    String.concat " " ("at" :: Proto.encode_token i :: List.map string_of_int oids)
  | Proto.P_span (a, b, oids) ->
    String.concat " "
      ("span" :: Proto.encode_token a :: Proto.encode_token b :: List.map string_of_int oids)
  | Proto.P_agg { poi; widx; w_lo; w_hi; count; density; distinct } ->
    Printf.sprintf "agg %d %d %s %s %d %h %d" poi widx (Proto.encode_token w_lo)
      (Proto.encode_token w_hi) count density distinct

let render_pieces_concat msg =
  let with_pieces head pieces = String.concat "\n" (head :: List.map render_piece_concat pieces) in
  match msg with
  | Proto.R_unsubscribe { sub; pieces } ->
    with_pieces (Printf.sprintf "OK UNSUBSCRIBE %d %d" sub (List.length pieces)) pieces
  | Proto.R_query pieces -> with_pieces (Printf.sprintf "OK QUERY %d" (List.length pieces)) pieces
  | Proto.E_pieces { sub; first_seq; pieces } ->
    with_pieces (Printf.sprintf "EVENT %d %d %d" sub first_seq (List.length pieces)) pieces
  | m -> Proto.render_server_msg m

(* Piece frames with escaped tokens, empty OID lists, tokens and lists
   drawn from small pools (so consecutive pieces often hold one
   physically) and fresh ones (equal, not shared), and agg rows. *)
let gen_piece_msg =
  let open QCheck.Gen in
  let fresh_token =
    string_size (0 -- 12)
      ~gen:(frequency [ (3, printable); (2, oneofl [ '%'; ' '; '\n'; '\t'; '\r' ]) ])
  in
  let* tokens = list_size (1 -- 3) fresh_token in
  let token = frequency [ (3, oneofl tokens); (1, fresh_token) ] in
  let fresh = list_size (0 -- 5) small_signed_int in
  let* pool = list_size (1 -- 3) fresh in
  let oids = frequency [ (4, oneofl pool); (1, fresh); (1, return []) ] in
  let agg =
    let* poi = small_nat and* widx = small_nat and* w_lo = token and* w_hi = token
    and* count = small_nat and* density = float and* distinct = small_nat in
    return (Proto.P_agg { poi; widx; w_lo; w_hi; count; density; distinct })
  in
  let piece =
    frequency
      [ (3, map2 (fun i l -> Proto.P_at (i, l)) token oids);
        (3, map3 (fun a b l -> Proto.P_span (a, b, l)) token token oids);
        (1, agg) ]
  in
  let* pieces = list_size (0 -- 12) piece and* sub = small_nat and* first_seq = small_nat in
  oneofl
    [ Proto.E_pieces { sub; first_seq; pieces }; Proto.R_query pieces;
      Proto.R_unsubscribe { sub; pieces } ]

let prop_render_pieces =
  QCheck.Test.make ~name:"piece frames render as the String.concat oracle" ~count:1000
    (QCheck.make ~print:(fun m -> String.escaped (render_pieces_concat m)) gen_piece_msg)
    (fun m -> Proto.render_server_msg m = render_pieces_concat m)

let requests =
  [ Proto.Hello 1;
    Proto.Update (U.New { oid = 3; tau = q 7; a = vec [ 1; 0 ]; b = vec [ 5; 5 ] });
    Proto.Update (U.Chdir { oid = 3; tau = Q.of_string "19/2"; a = vec [ 0; -2 ] });
    Proto.Update (U.Terminate { oid = 3; tau = q 12 });
    Proto.Subscribe { kind = Proto.Sub_knn 2; lo = q 0; hi = q 100 };
    Proto.Subscribe { kind = Proto.Sub_range (Q.of_string "49/4"); lo = q 1; hi = q 10 };
    Proto.Subscribe { kind = Proto.Sub_gdist (Proto.Speed_sq, q 9); lo = q 0; hi = q 5 };
    Proto.Subscribe { kind = Proto.Sub_gdist (Proto.Euclidean_sq, q 16); lo = q 0; hi = q 5 };
    Proto.Subscribe
      { kind =
          Proto.Sub_agg
            { d = q 5; window = Q.of_string "10/3";
              pois = [ [ q 0; q 0 ]; [ Q.of_string "-40"; Q.of_string "163/7" ] ] };
        lo = q 0; hi = q 100 };
    Proto.Unsubscribe 4;
    Proto.Query { kind = Proto.Qk_knn 1; lo = q 0; hi = q 40 };
    Proto.Query { kind = Proto.Qk_range (q 50); lo = q 0; hi = q 40 };
    Proto.Stats `Json;
    Proto.Stats `Prometheus;
    Proto.Ping;
    Proto.Bye;
    Proto.Repl_hello { version = 1; since = None };
    Proto.Repl_hello { version = 1; since = Some (170001, 42) } ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let s = Proto.render_request req in
      match Proto.parse_request ~dim:2 s with
      | Ok got -> Alcotest.(check bool) s true (got = req)
      | Error e -> Alcotest.failf "%s: %s" s e)
    requests

let algebraic = "root(t^2 + -448/11*t + 663/11) in (1011/704, 337/176) ~ 1.53799"

let server_msgs =
  [ Proto.R_hello { session = 5; dim = 2; clock = q 3 };
    Proto.R_update Proto.V_accepted;
    Proto.R_update (Proto.V_rejected "stale update at 3");
    Proto.R_update (Proto.V_quarantined "unknown oid 9");
    Proto.R_subscribe { sub = 1 };
    Proto.R_unsubscribe
      { sub = 1;
        pieces = [ Proto.P_at (algebraic, [ 1; 2 ]); Proto.P_span ("0", "5/2", []) ] };
    Proto.R_query [ Proto.P_span ("1/3", algebraic, [ 7 ]) ];
    Proto.R_stats "{\"a\": 1,\n \"b\": [2, 3]}";
    Proto.R_pong { clock = Q.of_string "8/3" };
    Proto.R_bye;
    Proto.R_err { code = "busy"; msg = "at most 64 sessions" };
    Proto.E_pieces
      { sub = 2; first_seq = 10;
        pieces = [ Proto.P_at (algebraic, [ 1 ]); Proto.P_span ("4", "9/2", [ 1; 3 ]) ] };
    Proto.E_dropped { sub = 2; from_seq = 11; to_seq = 19 };
    Proto.E_complete { sub = 2 };
    Proto.E_shutdown { reason = "draining" };
    Proto.R_repl_hello
      { dim = 2; clock = q 3; epoch = 170001; seq = 42; snapshot = None };
    Proto.R_repl_hello
      { dim = 2; clock = Q.of_string "7/2"; epoch = 170002; seq = 0;
        snapshot = Some "dim 2\nnew 1 0 0 0 1 1\n" };
    Proto.E_repl_update
      { seq = 43; dim = 2;
        u = U.New { oid = 3; tau = q 7; a = vec [ 1; 0 ]; b = vec [ 5; 5 ] } };
    Proto.E_repl_digest { clock = q 9; bytes = 1234; crc = "deadbeef" } ]

let test_server_msg_roundtrip () =
  List.iter
    (fun msg ->
      let s = Proto.render_server_msg msg in
      match Proto.parse_server_msg s with
      | Ok got ->
        Alcotest.(check bool) (String.split_on_char '\n' s |> List.hd) true (got = msg)
      | Error e -> Alcotest.failf "%s: %s" s e)
    server_msgs

let test_is_event () =
  List.iter
    (fun msg ->
      let expect =
        match msg with
        | Proto.E_pieces _ | Proto.E_dropped _ | Proto.E_complete _
        | Proto.E_shutdown _ | Proto.E_repl_update _ | Proto.E_repl_digest _ ->
          true
        | _ -> false
      in
      Alcotest.(check bool) "is_event" expect (Proto.is_event msg))
    server_msgs

let test_piece_roundtrip () =
  List.iter
    (fun p ->
      let s = Proto.render_piece p in
      match Proto.parse_piece s with
      | Ok got -> Alcotest.(check bool) s true (got = p)
      | Error e -> Alcotest.failf "%s: %s" s e)
    [ Proto.P_at ("0", []);
      Proto.P_at (algebraic, [ 1; 2; 3 ]);
      Proto.P_span ("-7/2", algebraic, [ 9 ]);
      Proto.P_agg
        { poi = 0; widx = 3; w_lo = "30"; w_hi = "40"; count = 2;
          density = 2.5; distinct = 4 } ]

(* The agg wire grammar: arity is data-dependent (npois × dim
   coordinates), and density travels as a hex float literal. *)
let test_agg_wire () =
  (* hex-float density is lossless even for values with no finite decimal
     (or binary-decimal) rendering *)
  List.iter
    (fun density ->
      let p =
        Proto.P_agg
          { poi = 1; widx = 0; w_lo = "0"; w_hi = "10/3"; count = 3; density;
            distinct = 7 }
      in
      match Proto.parse_piece (Proto.render_piece p) with
      | Ok (Proto.P_agg got) ->
        Alcotest.(check bool)
          (Printf.sprintf "density %.17g bit-exact" density)
          true
          (Int64.equal (Int64.bits_of_float got.density)
             (Int64.bits_of_float density))
      | Ok _ -> Alcotest.fail "parsed to a non-agg piece"
      | Error e -> Alcotest.fail e)
    [ 0.0; 1.0 /. 3.0; 0.1; 1e-300; 12345.6789 ];
  (* agg rows ride the EVENT stream like any other piece *)
  let msg =
    Proto.E_pieces
      { sub = 3; first_seq = 0;
        pieces =
          [ Proto.P_agg
              { poi = 0; widx = 0; w_lo = "0"; w_hi = "10"; count = 1;
                density = 0.75; distinct = 1 };
            Proto.P_at ("5", [ 1 ]) ] }
  in
  (match Proto.parse_server_msg (Proto.render_server_msg msg) with
   | Ok got -> Alcotest.(check bool) "agg pieces in EVENT" true (got = msg)
   | Error e -> Alcotest.fail e);
  (* np / coordinate-arity validation *)
  List.iter
    (fun s ->
      match Proto.parse_request ~dim:2 s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed agg subscription %S" s)
    [ "SUBSCRIBE agg";
      "SUBSCRIBE agg 5 10";
      "SUBSCRIBE agg 5 10 x 0 0 0 100";
      (* np = 2 but only one POI's coordinates present *)
      "SUBSCRIBE agg 5 10 2 0 0 0 100";
      (* coordinates fine, lo/hi missing *)
      "SUBSCRIBE agg 5 10 2 0 0 40 40";
      (* one coordinate short for dim 2 *)
      "SUBSCRIBE agg 5 10 1 0 0 100";
      (* non-rational coordinate *)
      "SUBSCRIBE agg 5 10 1 0 z 0 100" ];
  (* the same np-sensitive head parses under the right dim *)
  match Proto.parse_request ~dim:3 "SUBSCRIBE agg 5 10 1 1 2 3 0 100" with
  | Ok (Proto.Subscribe { kind = Proto.Sub_agg { pois = [ [ _; _; _ ] ]; _ }; _ }) -> ()
  | Ok _ -> Alcotest.fail "dim-3 agg subscription parsed to the wrong shape"
  | Error e -> Alcotest.fail e

let test_malformed_requests () =
  List.iter
    (fun s ->
      match Proto.parse_request ~dim:2 s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed request %S" s)
    [ ""; "FROB"; "HELLO"; "HELLO moqp x"; "UPDATE"; "UPDATE new 1 2 3";
      "UPDATE teleport 1 2"; "SUBSCRIBE"; "SUBSCRIBE knn"; "SUBSCRIBE knn 2 0";
      "UNSUBSCRIBE"; "UNSUBSCRIBE x"; "QUERY knn 2"; "STATS xml"; "PING extra" ]

let test_malformed_server_msgs () =
  List.iter
    (fun s ->
      match Proto.parse_server_msg s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed server message %S" s)
    [ ""; "WAT"; "OK"; "EVENT"; "EVENT x y z"; "EVENT-DROPPED 1 2";
      "OK REPL-HELLO moqp 1 dim 2 clock 3 epoch 1 seq 0 mode teleport";
      "REPL-UPDATE 1 2"; "REPL-DIGEST 3 x y" ]

(* ------------------------------------------------------------------ *)
(* Frame attributes (tracing extension)                                *)
(* ------------------------------------------------------------------ *)

(* Heads whose grammar admits a [trace=]/[ts=]/[wm=] suffix. *)
let attr_requests =
  List.filter
    (function
      | Proto.Update _ | Proto.Query _ | Proto.Subscribe _ | Proto.Unsubscribe _ ->
        true
      | _ -> false)
    requests

let attr_server_msgs =
  List.filter
    (function
      | Proto.E_pieces _ | Proto.E_dropped _ | Proto.E_complete _
      | Proto.E_repl_update _ | Proto.E_repl_digest _ ->
        true
      | _ -> false)
    server_msgs

let full_attrs =
  { Proto.a_trace = Some (0x1fabc, 0x9d);
    a_ts = Some 1723112345.5;
    a_wm = Some (170001, 42) }

let test_attrs_roundtrip () =
  List.iter
    (fun req ->
      let s = Proto.render_request_attrs full_attrs req in
      match Proto.parse_request_attrs ~dim:2 s with
      | Ok (req', a) ->
        Alcotest.(check bool) s true (req' = req && a = full_attrs)
      | Error e -> Alcotest.failf "%s: %s" s e)
    attr_requests;
  List.iter
    (fun msg ->
      let s = Proto.render_server_msg_attrs full_attrs msg in
      match Proto.parse_server_msg_attrs s with
      | Ok (msg', a) ->
        Alcotest.(check bool)
          (String.split_on_char '\n' s |> List.hd)
          true
          (msg' = msg && a = full_attrs)
      | Error e -> Alcotest.failf "%s: %s" s e)
    attr_server_msgs

let test_attrs_free_text_untouched () =
  (* free-text heads neither gain nor lose attribute-shaped tokens *)
  let err = Proto.R_err { code = "busy"; msg = "retry later trace=1/2" } in
  (match Proto.parse_server_msg_attrs (Proto.render_server_msg err) with
   | Ok (got, a) ->
     Alcotest.(check bool) "ERR text verbatim" true
       (got = err && a = Proto.no_attrs)
   | Error e -> Alcotest.failf "ERR: %s" e);
  (* attrs requested on a non-capable head are dropped, not smuggled *)
  Alcotest.(check string) "HELLO ignores attrs"
    (Proto.render_request (Proto.Hello 1))
    (Proto.render_request_attrs full_attrs (Proto.Hello 1))

let test_attrs_malformed_ignored () =
  let base = Proto.render_request (Proto.Unsubscribe 4) in
  List.iter
    (fun suffix ->
      match Proto.parse_request_attrs ~dim:2 (base ^ suffix) with
      | Ok (req, a) ->
        Alcotest.(check bool) (base ^ suffix) true
          (req = Proto.Unsubscribe 4 && a = Proto.no_attrs)
      | Error e -> Alcotest.failf "%s: %s" (base ^ suffix) e)
    [ " trace=xyz"; " trace=1"; " ts=bogus"; " ts=nan"; " ts=inf"; " wm=5";
      " wm=a/b"; " trace=zz ts=oops wm=x" ]

(* Property coverage: a moqp 1 peer must parse every attributed frame to
   the same request/message (forward interop), and the attr-aware parsers
   must accept every attribute-free moqp 1 frame as [no_attrs] (backward
   interop).  Attribute codecs roundtrip exactly — [ts] values are drawn
   on the microsecond grid the wire format preserves. *)

let gen_opt g = QCheck.Gen.(frequency [ (1, return None); (3, map Option.some g) ])

let gen_attrs =
  let open QCheck.Gen in
  let id = int_bound 0xFFFFFFF in
  let ts = map (fun k -> float_of_int k /. 1e6) (int_bound 2_000_000_000) in
  map
    (fun (tr, t, wm) -> { Proto.a_trace = tr; a_ts = t; a_wm = wm })
    (triple (gen_opt (pair id id)) (gen_opt ts) (gen_opt (pair id id)))

let arb_attrs_req =
  QCheck.make
    ~print:(fun (a, r) -> Proto.render_request_attrs a r)
    QCheck.Gen.(pair gen_attrs (oneofl attr_requests))

let arb_attrs_msg =
  QCheck.make
    ~print:(fun (a, m) -> Proto.render_server_msg_attrs a m)
    QCheck.Gen.(pair gen_attrs (oneofl attr_server_msgs))

let prop_attrs_roundtrip_req =
  QCheck.Test.make ~name:"attrs request roundtrip" ~count:300 arb_attrs_req
    (fun (a, req) ->
      Proto.parse_request_attrs ~dim:2 (Proto.render_request_attrs a req)
      = Ok (req, a))

let prop_attrs_roundtrip_msg =
  QCheck.Test.make ~name:"attrs server msg roundtrip" ~count:300 arb_attrs_msg
    (fun (a, msg) ->
      Proto.parse_server_msg_attrs (Proto.render_server_msg_attrs a msg)
      = Ok (msg, a))

let prop_moqp1_reads_attrs =
  QCheck.Test.make ~name:"moqp 1 parser strips attrs" ~count:300 arb_attrs_req
    (fun (a, req) ->
      Proto.parse_request ~dim:2 (Proto.render_request_attrs a req) = Ok req)

let prop_moqp1_reads_attrs_msg =
  QCheck.Test.make ~name:"moqp 1 parser strips attrs (msgs)" ~count:300
    arb_attrs_msg
    (fun (a, msg) ->
      Proto.parse_server_msg (Proto.render_server_msg_attrs a msg) = Ok msg)

let prop_attrs_read_moqp1 =
  QCheck.Test.make ~name:"attr parser accepts moqp 1 frames" ~count:100
    (QCheck.make ~print:Proto.render_request QCheck.Gen.(oneofl requests))
    (fun req ->
      Proto.parse_request_attrs ~dim:2 (Proto.render_request req)
      = Ok (req, Proto.no_attrs))

let prop_attrs_read_moqp1_msg =
  QCheck.Test.make ~name:"attr parser accepts moqp 1 frames (msgs)" ~count:100
    (QCheck.make ~print:Proto.render_server_msg QCheck.Gen.(oneofl server_msgs))
    (fun msg ->
      Proto.parse_server_msg_attrs (Proto.render_server_msg msg)
      = Ok (msg, Proto.no_attrs))

(* ------------------------------------------------------------------ *)
(* Byte mutations                                                      *)
(* ------------------------------------------------------------------ *)

(* A peer's frame is untrusted: both parsers must answer [Ok] or [Error]
   on any bytes, never raise.  The inputs are valid renderings (with and
   without attributes) with one to four bytes overwritten, by an
   arbitrary byte or one of the grammar's own, and cut short one time in
   four.  Seeded, so every run tries the same frames. *)
let mutant valid =
  let open QCheck.Gen in
  let* s = valid in
  let n = String.length s in
  let grammar = List.of_seq (String.to_seq " \n=/-.:,0129eT") in
  let* edits =
    list_size (int_range 1 4) (pair (int_bound (max 0 (n - 1))) (frequency [ (1, char); (2, oneofl grammar) ]))
  in
  let* cut = frequency [ (3, return n); (1, int_bound n) ] in
  let b = Bytes.of_string s in
  List.iter (fun (i, c) -> if i < n then Bytes.set b i c) edits;
  return (Bytes.sub_string b 0 cut)

let never_raises ~name ~count valid parse =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:String.escaped (mutant valid))
       (fun s -> List.for_all (fun parse -> match parse s with Ok () | Error _ -> true) parse))

let prop_mutated_requests =
  never_raises ~name:"mutated requests: Ok or Error, never raise" ~count:2000
    QCheck.Gen.(
      oneof
        [ map Proto.render_request (oneofl requests);
          map (fun (a, r) -> Proto.render_request_attrs a r) (pair gen_attrs (oneofl attr_requests)) ])
    [ (fun s -> Result.map ignore (Proto.parse_request ~dim:2 s));
      (fun s -> Result.map ignore (Proto.parse_request_attrs ~dim:2 s)) ]

let prop_mutated_server_msgs =
  never_raises ~name:"mutated server msgs: Ok or Error, never raise" ~count:2000
    QCheck.Gen.(
      oneof
        [ map Proto.render_server_msg (oneofl server_msgs);
          map
            (fun (a, m) -> Proto.render_server_msg_attrs a m)
            (pair gen_attrs (oneofl attr_server_msgs)) ])
    [ (fun s -> Result.map ignore (Proto.parse_server_msg s));
      (fun s -> Result.map ignore (Proto.parse_server_msg_attrs s)) ]

(* ------------------------------------------------------------------ *)
(* Canonical piece streams                                             *)
(* ------------------------------------------------------------------ *)

let canon_cases =
  [ ( "dup instants collapse",
      [ Proto.P_at ("1", [ 2 ]); Proto.P_at ("1", [ 2 ]);
        Proto.P_span ("1", "2", [ 2 ]) ] );
    ( "span·at·span run with one answer set",
      [ Proto.P_span ("0", "1", [ 4; 7 ]); Proto.P_at ("1", [ 4; 7 ]);
        Proto.P_span ("1", "2", [ 4; 7 ]); Proto.P_at ("2", [ 4 ]) ] );
    ( "distinct answers survive",
      [ Proto.P_span ("0", "1", [ 1 ]); Proto.P_at ("1", [ 1; 2 ]);
        Proto.P_span ("1", "2", [ 2 ]) ] );
    ( "long homogeneous chain",
      [ Proto.P_span ("0", "1", []); Proto.P_at ("1", []);
        Proto.P_span ("1", "2", []); Proto.P_at ("2", []);
        Proto.P_span ("2", "3", []); Proto.P_at ("3", [ 5 ]) ] );
    ("empty", []);
    ("lone instant", [ Proto.P_at ("4", [ 9 ]) ]) ]

let test_simplify_idempotent () =
  List.iter
    (fun (name, ps) ->
      let once = Proto.simplify_pieces ps in
      Alcotest.(check bool) (name ^ ": idempotent") true
        (Proto.simplify_pieces once = once))
    canon_cases

(* The incremental canonicalizer must agree with the batch simplifier on
   every input AND on every way of splitting that input across pushes. *)
let test_canon_matches_simplify () =
  List.iter
    (fun (name, ps) ->
      let c = Proto.Canon.create () in
      let pushed = List.concat_map (Proto.Canon.push c) ps in
      let out = pushed @ Proto.Canon.flush c in
      Alcotest.(check bool) name true (out = Proto.simplify_pieces ps))
    canon_cases

let test_canon_streaming_prefixes () =
  (* feeding a stream piecewise and all at once give identical output *)
  List.iter
    (fun (name, ps) ->
      let whole =
        let c = Proto.Canon.create () in
        let pushed = List.concat_map (Proto.Canon.push c) ps in
        pushed @ Proto.Canon.flush c
      in
      (* chunk the stream at every split point *)
      let rec splits k =
        if k > List.length ps then ()
        else begin
          let c = Proto.Canon.create () in
          let fst_part = List.filteri (fun i _ -> i < k) ps in
          let snd_part = List.filteri (fun i _ -> i >= k) ps in
          let out1 = List.concat_map (Proto.Canon.push c) fst_part in
          let out2 = List.concat_map (Proto.Canon.push c) snd_part in
          let out = out1 @ out2 @ Proto.Canon.flush c in
          Alcotest.(check bool) (Printf.sprintf "%s @ split %d" name k) true
            (out = whole);
          splits (k + 1)
        end
      in
      splits 0)
    canon_cases

let () =
  Alcotest.run "proto"
    [ ("frame",
       [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
         Alcotest.test_case "timeout" `Quick test_frame_timeout;
         Alcotest.test_case "garbage" `Quick test_frame_garbage;
         Alcotest.test_case "oversize" `Quick test_frame_oversize;
         Alcotest.test_case "torn" `Quick test_frame_torn ]);
      ("codec",
       [ Alcotest.test_case "token percent-coding" `Quick test_token_codec;
         Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
         Alcotest.test_case "server msg roundtrip" `Quick test_server_msg_roundtrip;
         Alcotest.test_case "is_event" `Quick test_is_event;
         Alcotest.test_case "piece roundtrip" `Quick test_piece_roundtrip;
         Alcotest.test_case "agg wire grammar" `Quick test_agg_wire;
         Alcotest.test_case "malformed requests" `Quick test_malformed_requests;
         Alcotest.test_case "malformed server msgs" `Quick test_malformed_server_msgs;
         QCheck_alcotest.to_alcotest prop_token_formula;
         QCheck_alcotest.to_alcotest prop_render_pieces ]);
      ("attrs",
       Alcotest.test_case "full roundtrip" `Quick test_attrs_roundtrip
       :: Alcotest.test_case "free text untouched" `Quick
            test_attrs_free_text_untouched
       :: Alcotest.test_case "malformed ignored" `Quick test_attrs_malformed_ignored
       :: List.map QCheck_alcotest.to_alcotest
            [ prop_attrs_roundtrip_req; prop_attrs_roundtrip_msg;
              prop_moqp1_reads_attrs; prop_moqp1_reads_attrs_msg;
              prop_attrs_read_moqp1; prop_attrs_read_moqp1_msg ]);
      ("fuzz", [ prop_mutated_requests; prop_mutated_server_msgs ]);
      ("canon",
       [ Alcotest.test_case "simplify idempotent" `Quick test_simplify_idempotent;
         Alcotest.test_case "canon = simplify" `Quick test_canon_matches_simplify;
         Alcotest.test_case "canon split-invariant" `Quick test_canon_streaming_prefixes ]) ]
