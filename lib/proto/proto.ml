module Q = Moq_numeric.Rat
module U = Moq_mod.Update
module IO = Moq_mod.Mod_io

let version = 1

(* ---------------------------------------------------------------- *)
(* Token encoding                                                    *)

let must_escape c = c = '%' || c = ' ' || c = '\n' || c = '\t' || c = '\r'

let hex = "0123456789ABCDEF"

(* Each escaped byte becomes [%XX] (two upper-case hex digits): one pass
   to size the result, one to fill it. *)
let encode_token s =
  let n = String.length s in
  let escaped = ref 0 in
  for i = 0 to n - 1 do
    if must_escape s.[i] then incr escaped
  done;
  if !escaped = 0 then s
  else begin
    let b = Bytes.create (n + (2 * !escaped)) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let c = s.[i] in
      if must_escape c then begin
        let k = Char.code c in
        Bytes.set b !j '%';
        Bytes.set b (!j + 1) hex.[k lsr 4];
        Bytes.set b (!j + 2) hex.[k land 15];
        j := !j + 3
      end
      else begin
        Bytes.set b !j c;
        incr j
      end
    done;
    Bytes.unsafe_to_string b
  end

let decode_token s =
  if not (String.contains s '%') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (if s.[!i] = '%' && !i + 2 < n then begin
         match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
         | Some c ->
           Buffer.add_char b (Char.chr c);
           i := !i + 2
         | None -> Buffer.add_char b s.[!i]
       end
       else Buffer.add_char b s.[!i]);
      incr i
    done;
    Buffer.contents b
  end

(* ---------------------------------------------------------------- *)
(* Small parsing helpers                                             *)

let ( let* ) = Result.bind

let words s = String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let int_tok w =
  match int_of_string_opt w with Some i -> Ok i | None -> Error ("bad integer: " ^ w)

let rat_tok w =
  match Q.of_string w with
  | q -> Ok q
  | exception _ -> Error ("bad rational: " ^ w)

let head_and_body payload =
  match String.index_opt payload '\n' with
  | None -> (payload, [])
  | Some i ->
    ( String.sub payload 0 i,
      String.split_on_char '\n' (String.sub payload (i + 1) (String.length payload - i - 1))
      |> List.filter (fun l -> l <> "") )

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)

type gdist_id = Euclidean_sq | Speed_sq

let gdist_name = function Euclidean_sq -> "euclidean-sq" | Speed_sq -> "speed-sq"

let gdist_of_name = function
  | "euclidean-sq" -> Ok Euclidean_sq
  | "speed-sq" -> Ok Speed_sq
  | w -> Error ("unknown g-distance: " ^ w)

type sub_kind =
  | Sub_knn of int
  | Sub_range of Q.t
  | Sub_gdist of gdist_id * Q.t
  | Sub_agg of { d : Q.t; window : Q.t; pois : Q.t list list }

type query_kind = Qk_knn of int | Qk_range of Q.t

type request =
  | Hello of int
  | Update of U.t
  | Subscribe of { kind : sub_kind; lo : Q.t; hi : Q.t }
  | Unsubscribe of int
  | Query of { kind : query_kind; lo : Q.t; hi : Q.t }
  | Stats of [ `Json | `Prometheus ]
  | Ping
  | Bye
  | Repl_hello of { version : int; since : (int * int) option }
      (** a follower's handshake: [since] is the [(epoch, seq)] replication
          position it has applied up to ([None]: no state — ship a
          snapshot).  The epoch names one primary incarnation; a seq only
          means anything within its epoch *)

let render_request = function
  | Hello v -> Printf.sprintf "HELLO moqp %d" v
  | Repl_hello { version; since } ->
    (match since with
     | None -> Printf.sprintf "REPL-HELLO moqp %d" version
     | Some (e, s) -> Printf.sprintf "REPL-HELLO moqp %d since %d %d" version e s)
  | Update u -> "UPDATE " ^ IO.update_to_line u
  | Subscribe { kind; lo; hi } ->
    let k =
      match kind with
      | Sub_knn k -> Printf.sprintf "knn %d" k
      | Sub_range b -> Printf.sprintf "range %s" (Q.to_string b)
      | Sub_gdist (g, b) ->
        Printf.sprintf "gdist-threshold %s %s" (gdist_name g) (Q.to_string b)
      | Sub_agg { d; window; pois } ->
        String.concat " "
          ("agg" :: Q.to_string d :: Q.to_string window
           :: string_of_int (List.length pois)
           :: List.concat_map (List.map Q.to_string) pois)
    in
    Printf.sprintf "SUBSCRIBE %s %s %s" k (Q.to_string lo) (Q.to_string hi)
  | Unsubscribe sub -> Printf.sprintf "UNSUBSCRIBE %d" sub
  | Query { kind; lo; hi } ->
    let k =
      match kind with
      | Qk_knn k -> Printf.sprintf "knn %d" k
      | Qk_range b -> Printf.sprintf "range %s" (Q.to_string b)
    in
    Printf.sprintf "QUERY %s %s %s" k (Q.to_string lo) (Q.to_string hi)
  | Stats `Json -> "STATS json"
  | Stats `Prometheus -> "STATS prometheus"
  | Ping -> "PING"
  | Bye -> "BYE"

let parse_interval lo hi =
  let* lo = rat_tok lo in
  let* hi = rat_tok hi in
  if Q.compare lo hi > 0 then Error "empty interval" else Ok (lo, hi)

let parse_request ~dim payload =
  let head, _body = head_and_body payload in
  match words head with
  | [ "HELLO"; "moqp"; v ] ->
    let* v = int_tok v in
    Ok (Hello v)
  | [ "REPL-HELLO"; "moqp"; v ] ->
    let* v = int_tok v in
    Ok (Repl_hello { version = v; since = None })
  | [ "REPL-HELLO"; "moqp"; v; "since"; e; s ] ->
    let* v = int_tok v in
    let* e = int_tok e in
    let* s = int_tok s in
    if s < 0 || e < 0 then Error "negative replication position"
    else Ok (Repl_hello { version = v; since = Some (e, s) })
  | "UPDATE" :: _ when String.length head > 7 ->
    let line = String.sub head 7 (String.length head - 7) in
    let* u = IO.update_of_line ~dim line in
    Ok (Update u)
  | [ "SUBSCRIBE"; "knn"; k; lo; hi ] ->
    let* k = int_tok k in
    if k < 1 then Error "k must be positive"
    else
      let* lo, hi = parse_interval lo hi in
      Ok (Subscribe { kind = Sub_knn k; lo; hi })
  | [ "SUBSCRIBE"; "range"; b; lo; hi ] ->
    let* b = rat_tok b in
    let* lo, hi = parse_interval lo hi in
    Ok (Subscribe { kind = Sub_range b; lo; hi })
  | [ "SUBSCRIBE"; "gdist-threshold"; g; b; lo; hi ] ->
    let* g = gdist_of_name g in
    let* b = rat_tok b in
    let* lo, hi = parse_interval lo hi in
    Ok (Subscribe { kind = Sub_gdist (g, b); lo; hi })
  | "SUBSCRIBE" :: "agg" :: d :: w :: np :: rest ->
    let* d = rat_tok d in
    let* window = rat_tok w in
    let* np = int_tok np in
    if np < 1 then Error "need at least one POI"
    else if Q.sign d < 0 then Error "d must be non-negative"
    else if Q.sign window <= 0 then Error "window must be positive"
    else if List.length rest <> (np * dim) + 2 then
      Error
        (Printf.sprintf "agg: expected %d coordinates plus lo hi, got %d tokens"
           (np * dim) (List.length rest))
    else begin
      let rec take_pois acc k toks =
        if k = 0 then Ok (List.rev acc, toks)
        else begin
          let rec coords cacc j toks =
            if j = 0 then Ok (List.rev cacc, toks)
            else
              match toks with
              | [] -> Error "agg: truncated POI coordinates"
              | t :: toks ->
                let* q = rat_tok t in
                coords (q :: cacc) (j - 1) toks
          in
          let* p, toks = coords [] dim toks in
          take_pois (p :: acc) (k - 1) toks
        end
      in
      let* pois, toks = take_pois [] np rest in
      match toks with
      | [ lo; hi ] ->
        let* lo, hi = parse_interval lo hi in
        Ok (Subscribe { kind = Sub_agg { d; window; pois }; lo; hi })
      | _ -> Error "agg: expected lo hi after POI coordinates"
    end
  | [ "UNSUBSCRIBE"; sub ] ->
    let* sub = int_tok sub in
    Ok (Unsubscribe sub)
  | [ "QUERY"; "knn"; k; lo; hi ] ->
    let* k = int_tok k in
    if k < 1 then Error "k must be positive"
    else
      let* lo, hi = parse_interval lo hi in
      Ok (Query { kind = Qk_knn k; lo; hi })
  | [ "QUERY"; "range"; b; lo; hi ] ->
    let* b = rat_tok b in
    let* lo, hi = parse_interval lo hi in
    Ok (Query { kind = Qk_range b; lo; hi })
  | [ "STATS" ] | [ "STATS"; "json" ] -> Ok (Stats `Json)
  | [ "STATS"; "prometheus" ] -> Ok (Stats `Prometheus)
  | [ "PING" ] -> Ok Ping
  | [ "BYE" ] -> Ok Bye
  | [] -> Error "empty request"
  | w :: _ -> Error ("unknown request: " ^ w)

(* ---------------------------------------------------------------- *)
(* Pieces                                                            *)

type piece =
  | P_at of string * int list
  | P_span of string * string * int list
  | P_agg of {
      poi : int;
      widx : int;
      w_lo : string;
      w_hi : string;
      count : int;
      density : float;
      distinct : int;
    }

let render_piece = function
  | P_at (i, oids) ->
    (* the oid list may be empty, so no trailing-space juggling *)
    String.concat " " ("at" :: encode_token i :: List.map string_of_int oids)
  | P_span (a, b, oids) ->
    String.concat " " ("span" :: encode_token a :: encode_token b :: List.map string_of_int oids)
  | P_agg { poi; widx; w_lo; w_hi; count; density; distinct } ->
    (* %h is a lossless hex float literal, so peers compare rows
       bit-for-bit like they compare timeline instants *)
    Printf.sprintf "agg %d %d %s %s %d %h %d" poi widx (encode_token w_lo)
      (encode_token w_hi) count density distinct

let parse_oids ws =
  List.fold_left
    (fun acc w ->
      let* acc = acc in
      let* o = int_tok w in
      Ok (o :: acc))
    (Ok []) ws
  |> Result.map List.rev

let parse_piece line =
  match words line with
  | "at" :: i :: oids ->
    let* oids = parse_oids oids in
    Ok (P_at (decode_token i, oids))
  | "span" :: a :: b :: oids ->
    let* oids = parse_oids oids in
    Ok (P_span (decode_token a, decode_token b, oids))
  | [ "agg"; poi; widx; w_lo; w_hi; count; density; distinct ] ->
    let* poi = int_tok poi in
    let* widx = int_tok widx in
    let* count = int_tok count in
    let* distinct = int_tok distinct in
    (match float_of_string_opt density with
     | None -> Error ("bad density: " ^ density)
     | Some density ->
       Ok
         (P_agg
            { poi; widx; w_lo = decode_token w_lo; w_hi = decode_token w_hi;
              count; density; distinct }))
  | _ -> Error ("bad piece: " ^ line)

let parse_pieces lines =
  List.fold_left
    (fun acc l ->
      let* acc = acc in
      let* p = parse_piece l in
      Ok (p :: acc))
    (Ok []) lines
  |> Result.map List.rev

(* ---------------------------------------------------------------- *)
(* Server messages                                                   *)

type verdict = V_accepted | V_rejected of string | V_quarantined of string

type server_msg =
  | R_hello of { session : int; dim : int; clock : Q.t }
  | R_update of verdict
  | R_subscribe of { sub : int }
  | R_unsubscribe of { sub : int; pieces : piece list }
  | R_query of piece list
  | R_stats of string
  | R_pong of { clock : Q.t }
  | R_bye
  | R_err of { code : string; msg : string }
  | E_pieces of { sub : int; first_seq : int; pieces : piece list }
  | E_dropped of { sub : int; from_seq : int; to_seq : int }
  | E_complete of { sub : int }
  | E_shutdown of { reason : string }
  | R_repl_hello of
      { dim : int; clock : Q.t; epoch : int; seq : int; snapshot : string option }
      (** replication handshake reply: [(epoch, seq)] is the primary's
          current replication position; [snapshot] carries a full
          {!Moq_mod.Mod_io.db_to_string} image when the follower must
          bootstrap ([None]: the stream resumes as a delta) *)
  | E_repl_update of { seq : int; dim : int; u : U.t }
      (** one accepted update in commit order, the shipped WAL record *)
  | E_repl_digest of { clock : Q.t; bytes : int; crc : string }
      (** primary state digest at [clock]: byte length and CRC-32 of its
          serialized database — the follower's divergence audit *)

let is_event = function
  | E_pieces _ | E_dropped _ | E_complete _ | E_shutdown _ | E_repl_update _
  | E_repl_digest _ -> true
  | R_hello _ | R_update _ | R_subscribe _ | R_unsubscribe _ | R_query _ | R_stats _
  | R_pong _ | R_bye | R_err _ | R_repl_hello _ -> false

let with_pieces head pieces =
  String.concat "\n" (head :: List.map render_piece pieces)

let render_server_msg = function
  | R_hello { session; dim; clock } ->
    Printf.sprintf "OK HELLO moqp %d session %d dim %d clock %s" version session dim
      (Q.to_string clock)
  | R_update V_accepted -> "OK UPDATE accepted"
  | R_update (V_rejected r) -> "OK UPDATE rejected " ^ encode_token r
  | R_update (V_quarantined r) -> "OK UPDATE quarantined " ^ encode_token r
  | R_subscribe { sub } -> Printf.sprintf "OK SUBSCRIBE %d" sub
  | R_unsubscribe { sub; pieces } ->
    with_pieces (Printf.sprintf "OK UNSUBSCRIBE %d %d" sub (List.length pieces)) pieces
  | R_query pieces -> with_pieces (Printf.sprintf "OK QUERY %d" (List.length pieces)) pieces
  | R_stats body -> "OK STATS\n" ^ body
  | R_pong { clock } -> Printf.sprintf "OK PONG clock %s" (Q.to_string clock)
  | R_bye -> "OK BYE"
  | R_err { code; msg } -> Printf.sprintf "ERR %s %s" code msg
  | E_pieces { sub; first_seq; pieces } ->
    with_pieces
      (Printf.sprintf "EVENT %d %d %d" sub first_seq (List.length pieces))
      pieces
  | E_dropped { sub; from_seq; to_seq } ->
    Printf.sprintf "EVENT-DROPPED %d %d %d" sub from_seq to_seq
  | E_complete { sub } -> Printf.sprintf "EVENT-COMPLETE %d" sub
  | E_shutdown { reason } -> "SHUTDOWN " ^ reason
  | R_repl_hello { dim; clock; epoch; seq; snapshot } ->
    let head mode =
      Printf.sprintf "OK REPL-HELLO moqp %d dim %d clock %s epoch %d seq %d mode %s"
        version dim (Q.to_string clock) epoch seq mode
    in
    (match snapshot with
     | None -> head "delta"
     | Some s -> head "snapshot" ^ "\n" ^ s)
  | E_repl_update { seq; dim; u } ->
    Printf.sprintf "REPL-UPDATE %d %d %s" seq dim (IO.update_to_line u)
  | E_repl_digest { clock; bytes; crc } ->
    Printf.sprintf "REPL-DIGEST %s %d %s" (Q.to_string clock) bytes crc

let parse_server_msg payload =
  let head, body = head_and_body payload in
  match words head with
  | [ "OK"; "HELLO"; "moqp"; _v; "session"; s; "dim"; d; "clock"; c ] ->
    let* session = int_tok s in
    let* dim = int_tok d in
    let* clock = rat_tok c in
    Ok (R_hello { session; dim; clock })
  | [ "OK"; "UPDATE"; "accepted" ] -> Ok (R_update V_accepted)
  | [ "OK"; "UPDATE"; "rejected"; r ] -> Ok (R_update (V_rejected (decode_token r)))
  | [ "OK"; "UPDATE"; "quarantined"; r ] ->
    Ok (R_update (V_quarantined (decode_token r)))
  | [ "OK"; "SUBSCRIBE"; sub ] ->
    let* sub = int_tok sub in
    Ok (R_subscribe { sub })
  | [ "OK"; "UNSUBSCRIBE"; sub; _n ] ->
    let* sub = int_tok sub in
    let* pieces = parse_pieces body in
    Ok (R_unsubscribe { sub; pieces })
  | [ "OK"; "QUERY"; _n ] ->
    let* pieces = parse_pieces body in
    Ok (R_query pieces)
  | "OK" :: "STATS" :: _ ->
    let i = String.index_opt payload '\n' in
    let body =
      match i with
      | Some i -> String.sub payload (i + 1) (String.length payload - i - 1)
      | None -> ""
    in
    Ok (R_stats body)
  | [ "OK"; "PONG"; "clock"; c ] ->
    let* clock = rat_tok c in
    Ok (R_pong { clock })
  | [ "OK"; "BYE" ] -> Ok R_bye
  | "ERR" :: code :: rest -> Ok (R_err { code; msg = String.concat " " rest })
  | [ "EVENT"; sub; first; _n ] ->
    let* sub = int_tok sub in
    let* first_seq = int_tok first in
    let* pieces = parse_pieces body in
    Ok (E_pieces { sub; first_seq; pieces })
  | [ "EVENT-DROPPED"; sub; a; b ] ->
    let* sub = int_tok sub in
    let* from_seq = int_tok a in
    let* to_seq = int_tok b in
    Ok (E_dropped { sub; from_seq; to_seq })
  | [ "EVENT-COMPLETE"; sub ] ->
    let* sub = int_tok sub in
    Ok (E_complete { sub })
  | "SHUTDOWN" :: rest -> Ok (E_shutdown { reason = String.concat " " rest })
  | [ "OK"; "REPL-HELLO"; "moqp"; _v; "dim"; d; "clock"; c; "epoch"; e; "seq"; s;
      "mode"; m ] ->
    let* dim = int_tok d in
    let* clock = rat_tok c in
    let* epoch = int_tok e in
    let* seq = int_tok s in
    (match m with
     | "delta" -> Ok (R_repl_hello { dim; clock; epoch; seq; snapshot = None })
     | "snapshot" ->
       (* the snapshot body is verbatim — everything past the head line *)
       let body =
         match String.index_opt payload '\n' with
         | Some i -> String.sub payload (i + 1) (String.length payload - i - 1)
         | None -> ""
       in
       Ok (R_repl_hello { dim; clock; epoch; seq; snapshot = Some body })
     | _ -> Error ("unknown replication mode: " ^ m))
  | "REPL-UPDATE" :: s :: d :: (_ :: _ as rest) ->
    let* seq = int_tok s in
    let* dim = int_tok d in
    (* update_to_line emits single-space-separated tokens, so rejoining the
       word split is lossless *)
    let* u = IO.update_of_line ~dim (String.concat " " rest) in
    Ok (E_repl_update { seq; dim; u })
  | [ "REPL-DIGEST"; c; b; crc ] ->
    let* clock = rat_tok c in
    let* bytes = int_tok b in
    Ok (E_repl_digest { clock; bytes; crc })
  | [] -> Error "empty message"
  | w :: _ -> Error ("unknown server message: " ^ w)

(* ---------------------------------------------------------------- *)
(* Frame attributes                                                  *)

(* Optional `key=value` attributes appended to the head line of a frame:
   `trace=<id>/<span>` (hex trace context), `ts=<wall>` (sender clock at
   socket write, seconds), `wm=<epoch>/<seq>` (commit watermark on repl
   frames).  Attributes ride only on heads whose grammar is closed over
   `=`-free tokens (updates, queries, events, repl frames) — free-text
   heads like ERR keep their tails verbatim.  moqp 1 peers that predate
   attributes parse these frames through {!parse_request} /
   {!parse_server_msg}, which strip and ignore the suffix; peers that
   never send attributes produce frames the attr-aware parsers accept
   with {!no_attrs}.  Malformed attribute values are stripped and
   ignored rather than failing the frame. *)

type attrs = {
  a_trace : (int * int) option;  (* (trace_id, span_id) *)
  a_ts : float option;           (* sender wall clock, Unix seconds *)
  a_wm : (int * int) option;     (* (epoch, seq) commit watermark *)
}

let no_attrs = { a_trace = None; a_ts = None; a_wm = None }

let render_attrs a =
  let b = Buffer.create 32 in
  (match a.a_trace with
   | Some (t, s) -> Buffer.add_string b (Printf.sprintf " trace=%x/%x" t s)
   | None -> ());
  (match a.a_ts with
   | Some ts -> Buffer.add_string b (Printf.sprintf " ts=%.6f" ts)
   | None -> ());
  (match a.a_wm with
   | Some (e, s) -> Buffer.add_string b (Printf.sprintf " wm=%d/%d" e s)
   | None -> ());
  Buffer.contents b

(* Heads that may carry attributes: their token grammar never produces a
   token starting with "trace=", "ts=" or "wm=", so stripping from the
   right is unambiguous.  ERR / SHUTDOWN / verdict reasons are free text
   and are left untouched. *)
let attr_capable_head head =
  let w =
    match String.index_opt head ' ' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  match w with
  | "UPDATE" | "QUERY" | "SUBSCRIBE" | "UNSUBSCRIBE" | "EVENT" | "EVENT-DROPPED"
  | "EVENT-COMPLETE" | "REPL-UPDATE" | "REPL-DIGEST" -> true
  | _ -> false

let pair_of_string ~hex v =
  match String.index_opt v '/' with
  | None -> None
  | Some i ->
    let a = String.sub v 0 i in
    let b = String.sub v (i + 1) (String.length v - i - 1) in
    let conv s = int_of_string_opt (if hex then "0x" ^ s else s) in
    (match (conv a, conv b) with
     | Some x, Some y when x >= 0 && y >= 0 -> Some (x, y)
     | _ -> None)

(* Merge one `k=v` token into [acc]; [None] when the token is not an
   attribute at all (ends the strip scan). *)
let apply_attr acc tok =
  match String.index_opt tok '=' with
  | None -> None
  | Some i ->
    let k = String.sub tok 0 i in
    let v = String.sub tok (i + 1) (String.length tok - i - 1) in
    (match k with
     | "trace" -> Some { acc with a_trace = (match pair_of_string ~hex:true v with None -> acc.a_trace | p -> p) }
     | "ts" ->
       let ts = match float_of_string_opt v with Some f when Float.is_finite f -> Some f | _ -> acc.a_ts in
       Some { acc with a_ts = ts }
     | "wm" -> Some { acc with a_wm = (match pair_of_string ~hex:false v with None -> acc.a_wm | p -> p) }
     | _ -> None)

let strip_head_attrs head =
  if not (attr_capable_head head) then (head, no_attrs)
  else begin
    let rec go head acc =
      match String.rindex_opt head ' ' with
      | Some i ->
        let tok = String.sub head (i + 1) (String.length head - i - 1) in
        (match apply_attr acc tok with
         | Some acc -> go (String.sub head 0 i) acc
         | None -> (head, acc))
      | None -> (head, acc)
    in
    go head no_attrs
  end

(* Split a payload at the head line; the second component keeps its
   leading '\n' so [head ^ rest] reassembles losslessly. *)
let split_head payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i -> (String.sub payload 0 i, String.sub payload i (String.length payload - i))

let strip_attrs payload =
  let head, rest = split_head payload in
  let head, attrs = strip_head_attrs head in
  (head ^ rest, attrs)

let attach_attrs attrs payload =
  let head, rest = split_head payload in
  if attr_capable_head head then head ^ render_attrs attrs ^ rest else payload

let parse_request_attrs ~dim payload =
  let payload, attrs = strip_attrs payload in
  let* r = parse_request ~dim payload in
  Ok (r, attrs)

let render_request_attrs attrs r = attach_attrs attrs (render_request r)

let parse_server_msg_attrs payload =
  let payload, attrs = strip_attrs payload in
  let* m = parse_server_msg payload in
  Ok (m, attrs)

let render_server_msg_attrs attrs m = attach_attrs attrs (render_server_msg m)

(* Attr-blind views: a moqp 1 peer that predates attributes sees exactly
   the frame minus the suffix. *)
let parse_request ~dim payload = Result.map fst (parse_request_attrs ~dim payload)
let parse_server_msg payload = Result.map fst (parse_server_msg_attrs payload)

(* ---------------------------------------------------------------- *)
(* Canonical piece streams                                           *)

(* Wire-level mirror of [Timeline.simplify]: collapse maximal runs with
   equal answer sets.  Instants compare as their canonical renderings —
   the exact algebra renders deterministically, so equal instants from the
   same data are equal strings.  Two different monitor instances over the
   same database chunk their validated streams differently (one cuts at
   every update instant, a freshly created one only at support changes),
   but both simplify to the same canonical sequence — which is what makes
   a resumed subscription's stream comparable to the original. *)
let rec simplify_once = function
  | P_at (a, s1) :: P_at (b, s2) :: rest when a = b && s1 = s2 ->
    simplify_once (P_at (a, s1) :: rest)
  | P_span (a, _, s1) :: P_at (_, s2) :: P_span (_, b, s3) :: rest
    when s1 = s2 && s2 = s3 ->
    simplify_once (P_span (a, b, s1) :: rest)
  | p :: rest -> p :: simplify_once rest
  | [] -> []

let simplify_pieces pieces =
  let rec fix l =
    let l' = simplify_once l in
    if List.length l' = List.length l then l else fix l'
  in
  fix pieces

(* Incremental canonicalizer: push raw pieces in stream order, collect the
   canonical pieces that can no longer be altered by later input.  The
   concatenation of every [push] result plus the final [flush] equals
   [simplify_pieces] of the whole input. *)
module Canon = struct
  (* [pending] holds the still-malleable tail, oldest first: at most a
     span and a same-set instant riding on it ([Span; At]), which a third
     same-set span would collapse (the middle rule of the simplifier). *)
  type t = { mutable pending : piece list }

  let create () = { pending = [] }

  let push t p =
    match t.pending, p with
    | [], p ->
      t.pending <- [ p ];
      []
    (* duplicate instant piece: absorb *)
    | [ P_at (a, s1) ], P_at (b, s2) when a = b && s1 = s2 -> []
    | [ P_span _; P_at (a, s1) ], P_at (b, s2) when a = b && s1 = s2 -> []
    (* a same-set instant after a span may yet collapse: hold both *)
    | [ (P_span (_, _, s1) as sp) ], (P_at (_, s2) as at) when s1 = s2 ->
      t.pending <- [ sp; at ];
      []
    (* span · at · span, all one set: collapse and keep riding *)
    | [ P_span (a, _, s1); P_at (_, s2) ], P_span (_, d, s3) when s1 = s2 && s2 = s3 ->
      t.pending <- [ P_span (a, d, s1) ];
      []
    (* anything else: the held prefix is final *)
    | held, p ->
      t.pending <- [ p ];
      held

  let flush t =
    let held = t.pending in
    t.pending <- [];
    held
end
