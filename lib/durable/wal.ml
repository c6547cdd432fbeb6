module IO = Moq_mod.Mod_io
module U = Moq_mod.Update
module Sink = Moq_obs.Sink

type tail = Clean | Corrupt of { line : int; reason : string }

let pp_tail fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Corrupt { line; reason } -> Format.fprintf fmt "corrupt at line %d: %s" line reason

type replay = {
  dim : int;
  updates : U.t list;
  tail : tail;
  good_bytes : int;
}

let header_line dim = Printf.sprintf "wal 1 %d" dim

(* One record, newline included: the per-update append path, so it is
   assembled with one [String.concat] rather than through [Printf]. *)
let record_line u =
  let payload = IO.update_to_line u in
  String.concat "" [ "u "; Crc32.to_hex (Crc32.string payload); " "; payload; "\n" ]

(* ---------------------------------------------------------------- *)

(* Split into (line_number, byte_offset_past_line, content) keeping track of
   whether the final line was newline-terminated — a torn append leaves a
   partial last line that must still pass its CRC to be believed. *)
let scan_lines s =
  let n = String.length s in
  let out = ref [] in
  let line = ref 1 in
  let start = ref 0 in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\n' then begin
      out := (!line, !i + 1, String.sub s !start (!i - !start)) :: !out;
      incr line;
      start := !i + 1
    end;
    incr i
  done;
  if !start < n then out := (!line, n, String.sub s !start (n - !start)) :: !out;
  List.rev !out

let parse_record ~dim content =
  match String.index_opt content ' ' with
  | Some 1 when content.[0] = 'u' && String.length content >= 11 ->
    let crc_s = String.sub content 2 8 in
    if String.length content < 11 || content.[10] <> ' ' then Error "malformed record"
    else begin
      let payload = String.sub content 11 (String.length content - 11) in
      match Crc32.of_hex crc_s with
      | None -> Error "malformed CRC"
      | Some crc ->
        if Crc32.string payload <> crc then Error "CRC mismatch"
        else begin
          match IO.update_of_line ~dim payload with
          | Ok u -> Ok u
          | Error e -> Error ("CRC-valid record fails to parse: " ^ e)
        end
    end
  | _ -> Error "malformed record"

let torn_header reason =
  { dim = 0; updates = []; tail = Corrupt { line = 1; reason }; good_bytes = 0 }

let read path =
  match (try Ok (IO.read_file path) with Sys_error e -> Error e) with
  | Error e -> Error e
  | Ok s ->
    (match scan_lines s with
     | [] -> Ok (torn_header "empty log (header write lost)")
     | (_, hdr_end, hdr) :: records ->
       let hdr_terminated = hdr_end >= 1 && s.[hdr_end - 1] = '\n' in
       (match String.split_on_char ' ' (String.trim hdr) with
        | [ "wal"; "1"; d ] when (match int_of_string_opt d with Some d -> d >= 1 | None -> false) ->
          let dim = int_of_string d in
          let rec go acc good = function
            | [] -> { dim; updates = List.rev acc; tail = Clean; good_bytes = good }
            | (line, past, content) :: rest ->
              (match parse_record ~dim content with
               | Ok u -> go (u :: acc) past rest
               | Error reason ->
                 { dim; updates = List.rev acc; tail = Corrupt { line; reason };
                   good_bytes = good })
          in
          Ok (go [] hdr_end records)
        | _ when not hdr_terminated ->
          (* a crash mid-creation tore the header itself: no records to
             replay, but the checkpoint is still authoritative *)
          Ok (torn_header "torn header")
        | _ -> Error (path ^ ": bad write-ahead log header")))

(* ---------------------------------------------------------------- *)

(* Appends write straight to the file descriptor through Fsutil.write_all:
   no channel buffer to lose on a crash, short writes and EINTR retried
   until the whole record is handed to the kernel. *)
type writer = {
  fd : Unix.file_descr;
  fsync : bool;
  sink : Sink.t;
}

let sync w =
  if w.fsync then begin
    if Sink.active w.sink then begin
      Sink.count w.sink "moq_wal_fsyncs_total" 1;
      let t0 = Sink.monotonic () in
      Fsutil.fsync w.fd;
      let dt = Sink.monotonic () -. t0 in
      Sink.observe w.sink "moq_wal_fsync_seconds" dt;
      Sink.observe w.sink "moq_stage_fsync_ns" (dt *. 1e9)
    end
    else Fsutil.fsync w.fd
  end

let create ?(fsync = true) ?(sink = Sink.noop) ~path ~dim () =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let w = { fd; fsync; sink } in
  Fsutil.write_string fd (header_line dim ^ "\n");
  sync w;
  w

let open_append ?(fsync = true) ?(sink = Sink.noop) ~path ~good_bytes () =
  (try Unix.truncate path good_bytes with Unix.Unix_error _ -> ());
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  { fd; fsync; sink }

let append w u =
  if Sink.active w.sink then begin
    Sink.count w.sink "moq_wal_appends_total" 1;
    let line = record_line u in
    Sink.count w.sink "moq_wal_bytes_written_total" (String.length line);
    let t0 = Sink.monotonic () in
    Fsutil.write_string w.fd line;
    Sink.observe w.sink "moq_stage_wal_append_ns" ((Sink.monotonic () -. t0) *. 1e9);
    sync w;
    Sink.observe w.sink "moq_wal_append_seconds" (Sink.monotonic () -. t0)
  end
  else begin
    Fsutil.write_string w.fd (record_line u);
    sync w
  end

let close w = Unix.close w.fd
