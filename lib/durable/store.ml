module DB = Moq_mod.Mobdb
module IO = Moq_mod.Mod_io
module Q = Moq_numeric.Rat
module U = Moq_mod.Update
module Sink = Moq_obs.Sink

let checkpoint_file dir = Filename.concat dir "checkpoint.mod"
let wal_file dir = Filename.concat dir "wal.log"

(* One checkpoint generation back.  At each checkpoint the outgoing
   snapshot and its log are kept as [.prev] files, so a corrupt (or torn)
   current checkpoint still recovers: previous snapshot + previous log +
   current log replays to the exact same state. *)
let checkpoint_prev_file dir = checkpoint_file dir ^ ".prev"
let wal_prev_file dir = wal_file dir ^ ".prev"

(* The render cache: each object's [IO.object_lines] beside the trajectory
   they render.  A checkpoint, digest or snapshot is the header line
   followed by every object's lines in OID order, i.e. [IO.db_to_string
   db].  [Mobdb] is a persistent map: an update replaces one binding and
   every other one still holds the physically same trajectory, so an entry
   whose trajectory is [==] to the database's renders it exactly.  The
   check is physical equality, never the OID alone: [chdir] and
   [terminate] keep the OID and bind a new trajectory. *)
module Cache = Hashtbl.Make (struct
  type t = Moq_mod.Oid.t

  let equal = Int.equal

  (* OIDs are mostly dense, so the identity spreads them over the buckets
     in order, and a checkpoint's in-order walk reads the table in order *)
  let hash (o : t) = o
end)

type rendered = { tr : Moq_mod.Trajectory.t; lines : string }

(* Per store, never shared: several stores run under systhreads in one
   process (server, follower, tests). *)
type render = {
  cache : rendered Cache.t;
  out : Bytes.t;  (* the one buffer a checkpoint streams through *)
}

let new_render () = { cache = Cache.create 1024; out = Bytes.create 65536 }

type t = {
  dir : string;
  fsync : bool;
  checkpoint_every : int;
  sink : Sink.t;
  render : render;
  mutable db : DB.t;
  mutable wal : Wal.writer;
  mutable pending : int;  (* records in the live log *)
}

type recovery = {
  db : DB.t;
  clock : Q.t;
  replayed : int;
  stale_skipped : int;
  invalid_skipped : int;
  tail : Wal.tail;
  fallback : bool;
}

let pp_recovery fmt r =
  Format.fprintf fmt
    "recovered to clock %a: %d objects, %d log records replayed (%d stale, %d invalid skipped), log tail %a%s"
    Q.pp r.clock (DB.cardinal r.db) r.replayed r.stale_skipped r.invalid_skipped
    Wal.pp_tail r.tail
    (if r.fallback then " (via previous checkpoint)" else "")

(* ---------------------------------------------------------------- *)
(* Snapshot bytes, through the render cache.                         *)

let cached_lines r o tr =
  match Cache.find r.cache o with
  | e when e.tr == tr -> e.lines
  | _ | (exception Not_found) ->
    let lines = IO.object_lines o tr in
    Cache.replace r.cache o { tr; lines };
    lines

(* Hand [f] the pieces of [IO.db_to_string db] in order; return the
   snapshot's length and CRC. *)
let fold_snapshot r db f =
  let crc = ref Crc32.init and bytes = ref 0 in
  let piece s =
    crc := Crc32.update !crc s 0 (String.length s);
    bytes := !bytes + String.length s;
    f s
  in
  piece (IO.header_line db);
  DB.iter (fun o tr -> piece (cached_lines r o tr)) db;
  (!bytes, Crc32.finish !crc)

(* Checkpoint: the snapshot + "# crc <hex>" trailer, tmp + rename.  The
   pieces are copied into [r.out] and handed to [Fsutil.write_all] a
   buffer at a time, CRC'd on the way; no whole-payload string is built. *)
let write_checkpoint ?(sink = Sink.noop) ?(keep_prev = false) ~fsync r dir db =
  Sink.count sink "moq_checkpoints_total" 1;
  Sink.time sink "moq_checkpoint_seconds" @@ fun () ->
  let tmp = checkpoint_file dir ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (try
     let buf = r.out and fill = ref 0 in
     let flush () =
       Fsutil.write_all fd buf 0 !fill;
       fill := 0
     in
     let put s =
       let n = String.length s in
       if !fill + n > Bytes.length buf then flush ();
       if n > Bytes.length buf then Fsutil.write_string fd s
       else begin
         Bytes.blit_string s 0 buf !fill n;
         fill := !fill + n
       end
     in
     let bytes, crc = fold_snapshot r db put in
     let trailer = "# crc " ^ Crc32.to_hex crc ^ "\n" in
     put trailer;
     flush ();
     Sink.observe sink "moq_checkpoint_bytes"
       (float_of_int (bytes + String.length trailer));
     if fsync then Fsutil.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  if keep_prev && Sys.file_exists (checkpoint_file dir) then
    Sys.rename (checkpoint_file dir) (checkpoint_prev_file dir);
  Sys.rename tmp (checkpoint_file dir)

let read_checkpoint_path path =
  match (try Ok (IO.read_file path) with Sys_error e -> Error e) with
  | Error e -> Error e
  | Ok s ->
    let trailer_at =
      (* position of the final "# crc ..." line *)
      let stripped = if s <> "" && s.[String.length s - 1] = '\n'
        then String.sub s 0 (String.length s - 1) else s in
      match String.rindex_opt stripped '\n' with
      | Some i -> Some (i + 1)
      | None -> None
    in
    (match trailer_at with
     | Some i when String.length s - i >= 6 && String.sub s i 6 = "# crc " ->
       let payload = String.sub s 0 i in
       let hex = String.trim (String.sub s (i + 6) (String.length s - i - 6)) in
       (match Crc32.of_hex hex with
        | Some crc when Crc32.string payload = crc ->
          (match IO.db_of_string payload with
           | Ok db -> Ok db
           | Error e -> Error (path ^ ": " ^ e))
        | Some _ -> Error (path ^ ": checkpoint CRC mismatch")
        | None -> Error (path ^ ": malformed checkpoint CRC trailer"))
     | _ -> Error (path ^ ": checkpoint missing its CRC trailer"))

(* ---------------------------------------------------------------- *)

let init ?(fsync = true) ?(checkpoint_every = 256) ?(sink = Sink.noop) ~dir db =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (* a fresh store owns the directory: stale fallback files from an
     earlier generation must not shadow this one *)
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ checkpoint_prev_file dir; wal_prev_file dir ];
  let render = new_render () in
  write_checkpoint ~sink ~fsync render dir db;
  let wal = Wal.create ~fsync ~sink ~path:(wal_file dir) ~dim:(DB.dim db) () in
  { dir; fsync; checkpoint_every; sink; render; db; wal; pending = 0 }

(* Replay each existing log over [db] in order; missing files are
   skipped (a log that was never started).  Returns the tail verdict of
   the last log replayed — the live one — since earlier logs were closed
   whole at rotation time. *)
let replay_wals db paths =
  let rec go db replayed stale invalid tail = function
    | [] -> Ok (db, replayed, stale, invalid, tail)
    | path :: rest ->
      if not (Sys.file_exists path) then go db replayed stale invalid tail rest
      else begin
        match Wal.read path with
        | Error e -> Error e
        | Ok r ->
          if r.Wal.dim <> 0 && r.Wal.dim <> DB.dim db then
            Error (Printf.sprintf "%s: log dimension %d, checkpoint dimension %d"
                     path r.Wal.dim (DB.dim db))
          else begin
            let db = ref db
            and rp = ref replayed and st = ref stale and iv = ref invalid in
            List.iter
              (fun u ->
                match DB.apply !db u with
                | Ok db' ->
                  db := db';
                  incr rp
                | Error (DB.Stale_update _) -> incr st
                | Error _ -> incr iv)
              r.Wal.updates;
            go !db !rp !st !iv r.Wal.tail rest
          end
      end
  in
  go db 0 0 0 Wal.Clean paths

let recover_obs ~(sink : Sink.t) ~dir =
  Sink.count sink "moq_recover_attempts_total" 1;
  Sink.time sink "moq_recover_seconds" @@ fun () ->
  let fail e =
    Sink.count sink "moq_recover_failures_total" 1;
    Error e
  in
  let finish ~fallback (db, replayed, stale_skipped, invalid_skipped, tail) =
    Sink.count sink "moq_recover_replayed_total" replayed;
    Sink.count sink "moq_recover_stale_skipped_total" stale_skipped;
    Sink.count sink "moq_recover_invalid_skipped_total" invalid_skipped;
    (match tail with
     | Wal.Clean -> ()
     | Wal.Corrupt _ -> Sink.count sink "moq_recover_corrupt_tail_total" 1);
    Ok { db; clock = DB.last_update db; replayed; stale_skipped;
         invalid_skipped; tail; fallback }
  in
  match read_checkpoint_path (checkpoint_file dir) with
  | Ok db ->
    (match replay_wals db [ wal_file dir ] with
     | Ok out -> finish ~fallback:false out
     | Error e -> fail e)
  | Error cur_err ->
    (* current checkpoint unreadable (torn rotation, bit rot): fall back
       to the previous generation and replay both logs over it — records
       already reflected in the lost checkpoint replay as stale no-ops *)
    (match read_checkpoint_path (checkpoint_prev_file dir) with
     | Error prev_err ->
       fail (Printf.sprintf "%s; previous checkpoint: %s" cur_err prev_err)
     | Ok db ->
       Sink.count sink "moq_recover_checkpoint_fallback_total" 1;
       (match replay_wals db [ wal_prev_file dir; wal_file dir ] with
        | Ok out -> finish ~fallback:true out
        | Error e -> fail e))

let recover ~dir = recover_obs ~sink:Sink.noop ~dir

let open_ ?(fsync = true) ?(checkpoint_every = 256) ?(sink = Sink.noop) ~dir () =
  match recover_obs ~sink ~dir with
  | Error e -> Error e
  | Ok r ->
    let wal_path = wal_file dir in
    let fresh () = (Wal.create ~fsync ~sink ~path:wal_path ~dim:(DB.dim r.db) (), 0) in
    (* the log keeps its good records, and they count towards the next
       rotation: that is what bounds the log at [checkpoint_every - 1] *)
    let wal, pending =
      if Sys.file_exists wal_path then begin
        match Wal.read wal_path with
        | Ok { Wal.good_bytes; updates; _ } when good_bytes > 0 ->
          (Wal.open_append ~fsync ~sink ~path:wal_path ~good_bytes (), List.length updates)
        | Ok _ (* torn header: rewrite from scratch *) | Error _ -> fresh ()
      end
      else fresh ()
    in
    Ok
      ( { dir; fsync; checkpoint_every; sink; render = new_render (); db = r.db;
          wal; pending },
        r )

let db (t : t) = t.db
let clock (t : t) = DB.last_update t.db
let dim (t : t) = DB.dim t.db

let checkpoint_now (t : t) =
  (* Rotation order makes every crash window recoverable:
     close the live log (all its records are in [t.db]) — write the new
     snapshot to a tmp — demote the current checkpoint to [.prev] —
     promote the tmp — demote the closed log to [.prev] — start a fresh
     log.  Before promotion the old checkpoint plus both logs rebuild
     [t.db]; after it the new checkpoint is authoritative and any
     leftover records replay as stale no-ops. *)
  Wal.close t.wal;
  write_checkpoint ~sink:t.sink ~keep_prev:true ~fsync:t.fsync t.render t.dir t.db;
  let wal_path = wal_file t.dir in
  if Sys.file_exists wal_path then Sys.rename wal_path (wal_prev_file t.dir);
  t.wal <-
    Wal.create ~fsync:t.fsync ~sink:t.sink ~path:wal_path ~dim:(DB.dim t.db) ();
  t.pending <- 0

(* Log [u] and advance to [db'], the database [u] leads to. *)
let commit (t : t) u db' =
  Sink.count t.sink "moq_store_appends_total" 1;
  (* log before advancing: the record is on disk before anyone can see
     the new state *)
  Wal.append t.wal u;
  t.db <- db';
  t.pending <- t.pending + 1;
  if t.pending >= t.checkpoint_every then checkpoint_now t

let append (t : t) u =
  match DB.apply t.db u with
  | Error e ->
    Sink.count t.sink "moq_store_append_rejected_total" 1;
    Error e
  | Ok db' ->
    commit t u db';
    Ok ()

type hooks = {
  stage : 'a. held:bool -> [ `Sanitize | `Append ] -> (unit -> 'a) -> 'a;
  committed : held:bool -> U.t -> unit;
}

let no_hooks = { stage = (fun ~held:_ _ f -> f ()); committed = (fun ~held:_ _ -> ()) }

let ingest ?(hooks = no_hooks) (t : t) san u =
  (* an accept commits the database the sanitizer validated: one apply *)
  let admit ~held u =
    match hooks.stage ~held `Sanitize (fun () -> Sanitize.classify san t.db u) with
    | Sanitize.Accepted db' as v ->
      hooks.stage ~held `Append (fun () -> commit t u db');
      hooks.committed ~held u;
      v
    | v -> v
  in
  let v = admit ~held:false u in
  (match v with
   | Sanitize.Accepted _ ->
     (* an accept can unblock quarantined updates (e.g. the [new] a
        quarantined [chdir] was waiting for); drain until a fixpoint *)
     let rec drain () =
       let progress =
         List.fold_left
           (fun acc (hu, _) ->
             match admit ~held:true hu with Sanitize.Accepted _ -> true | _ -> acc)
           false (Sanitize.take_quarantine san)
       in
       if progress then drain ()
     in
     drain ()
   | Sanitize.Rejected _ | Sanitize.Quarantined _ -> ());
  v

let digest (t : t) = fold_snapshot t.render t.db ignore

let snapshot (t : t) =
  let b = Buffer.create 4096 in
  ignore (fold_snapshot t.render t.db (Buffer.add_string b));
  Buffer.contents b

let close (t : t) = Wal.close t.wal
