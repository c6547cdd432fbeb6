(* Durability suite: WAL replay fidelity, checkpoint recovery, the
   kill-and-recover acceptance test (recovery equals the uninterrupted
   run), fault-injected streams through the sanitizer, and the engine's
   audit + self-healing rebuild.

   Workload seeds come from MOQ_FAULT_SEEDS (comma-separated) so CI can
   sweep fixed seeds; default "11,22,33". *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module U = Moq_mod.Update
module DB = Moq_mod.Mobdb
module IO = Moq_mod.Mod_io
module Gen = Moq_workload.Gen
module Crc32 = Moq_durable.Crc32
module Wal = Moq_durable.Wal
module Store = Moq_durable.Store
module Sanitize = Moq_durable.Sanitize
module Faults = Moq_durable.Faults

module BX = Moq_core.Backend.Exact
module EX = Moq_core.Engine.Make (BX)
module MonX = Moq_core.Monitor.Make (BX)
module Fof = Moq_core.Fof
module Gdist = Moq_core.Gdist

let q = Q.of_int

let seeds =
  match Sys.getenv_opt "MOQ_FAULT_SEEDS" with
  | None | Some "" -> [ 11; 22; 33 ]
  | Some s ->
    (* a typo must fail loudly, not quietly shrink the seed sweep *)
    String.split_on_char ',' s
    |> List.map (fun w ->
           match int_of_string_opt (String.trim w) with
           | Some seed -> seed
           | None -> failwith (Printf.sprintf "MOQ_FAULT_SEEDS=%S: %S is not an integer" s w))

let tmp_ctr = ref 0

let tmp_dir () =
  incr tmp_ctr;
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "moq_durable_%d_%d" (Unix.getpid ()) !tmp_ctr)
  in
  if Sys.file_exists d then
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d)
  else Unix.mkdir d 0o700;
  d

let update_str u = Format.asprintf "%a" U.pp u
let db_str db = IO.db_to_string db

let check_updates_equal msg expected actual =
  Alcotest.(check (list string)) msg (List.map update_str expected) (List.map update_str actual)

(* accepted-update reference: fold apply, skipping rejects *)
let apply_lenient db us =
  List.fold_left
    (fun db u -> match DB.apply db u with Ok db' -> db' | Error _ -> db)
    db us

let workload seed =
  let db = Gen.uniform_db ~seed ~n:10 ~extent:60 ~speed:5 () in
  let us = Gen.mixed_stream ~seed:(seed + 1) ~db ~start:(q 0) ~gap:(q 2) ~count:20 () in
  (db, us)

(* ------------------------------------------------------------------ *)
(* CRC32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  Alcotest.(check string) "check value" "cbf43926" (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check (option int)) "hex roundtrip" (Some 0xcbf43926) (Crc32.of_hex "cbf43926");
  Alcotest.(check (option int)) "bad hex" None (Crc32.of_hex "xyzw1234");
  Alcotest.(check (option int)) "wrong width" None (Crc32.of_hex "12345")

(* The reference: one bit at a time, no table. *)
let crc_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  !c lxor 0xFFFFFFFF

let random_string st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

let test_crc32_slicing () =
  let st = Random.State.make [| 32 |] in
  (* every length around the 8-byte step, at every alignment *)
  for len = 0 to 64 do
    let s = random_string st (len + 8) in
    for pos = 0 to 7 do
      let sub = String.sub s pos len in
      Alcotest.(check string)
        (Printf.sprintf "length %d at offset %d" len pos)
        (Crc32.to_hex (crc_bitwise sub))
        (Crc32.to_hex (Crc32.finish (Crc32.update Crc32.init s pos len)))
    done
  done;
  for _ = 1 to 200 do
    let s = random_string st (Random.State.int st 4096) in
    Alcotest.(check string)
      (Printf.sprintf "random string of %d bytes" (String.length s))
      (Crc32.to_hex (crc_bitwise s)) (Crc32.to_hex (Crc32.string s))
  done

let test_crc32_pieces () =
  let st = Random.State.make [| 33 |] in
  for _ = 1 to 200 do
    let s = random_string st (Random.State.int st 2048) in
    let n = String.length s in
    let cuts =
      List.sort_uniq compare (List.init (Random.State.int st 12) (fun _ -> Random.State.int st (n + 1)))
    in
    let crc, last =
      List.fold_left
        (fun (crc, from) cut -> (Crc32.update crc s from (cut - from), cut))
        (Crc32.init, 0) cuts
    in
    let crc = Crc32.update crc s last (n - last) in
    Alcotest.(check string)
      (Printf.sprintf "%d bytes in %d pieces" n (List.length cuts + 1))
      (Crc32.to_hex (Crc32.string s)) (Crc32.to_hex (Crc32.finish crc))
  done;
  Alcotest.check_raises "range past the end" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.update Crc32.init "abc" 2 2))

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

let wal_with seed =
  let db, us = workload seed in
  let accepted =
    (* the WAL only ever sees validated updates *)
    List.rev
      (snd
         (List.fold_left
            (fun (db, acc) u ->
              match DB.apply db u with Ok db' -> (db', u :: acc) | Error _ -> (db, acc))
            (db, []) us))
  in
  let path = Filename.concat (tmp_dir ()) "wal.log" in
  let w = Wal.create ~fsync:false ~path ~dim:(DB.dim db) () in
  List.iter (Wal.append w) accepted;
  Wal.close w;
  (path, accepted)

let test_wal_roundtrip () =
  List.iter
    (fun seed ->
      let path, accepted = wal_with seed in
      match Wal.read path with
      | Ok r ->
        Alcotest.(check bool) "clean tail" true (r.Wal.tail = Wal.Clean);
        check_updates_equal "records" accepted r.Wal.updates
      | Error e -> Alcotest.failf "read failed: %s" e)
    seeds

let is_prefix_of full part =
  let full = List.map update_str full and part = List.map update_str part in
  List.length part <= List.length full
  && List.for_all2 (fun a b -> a = b) part (List.filteri (fun i _ -> i < List.length part) full)

let test_wal_truncated_tail () =
  List.iter
    (fun seed ->
      let path, accepted = wal_with seed in
      let contents = IO.read_file path in
      let faults = Faults.create ~seed in
      for _ = 1 to 20 do
        let cut = Faults.truncate_string faults contents in
        IO.write_file path cut;
        match Wal.read path with
        | Ok r ->
          Alcotest.(check bool) "good prefix" true (is_prefix_of accepted r.Wal.updates);
          (* a mid-record cut must be reported; a cut that only lost a
             record's trailing newline leaves a complete CRC-valid record *)
          if r.Wal.tail = Wal.Clean then
            Alcotest.(check bool) "clean tail only at record boundary" true
              (String.length cut = String.length contents
              || cut.[String.length cut - 1] = '\n'
              || contents.[String.length cut] = '\n')
        | Error _ -> () (* header itself truncated: reported, not raised *)
      done)
    seeds

let test_wal_bit_flip () =
  List.iter
    (fun seed ->
      let path, accepted = wal_with seed in
      let contents = IO.read_file path in
      let faults = Faults.create ~seed in
      for _ = 1 to 40 do
        IO.write_file path (Faults.bit_flip faults contents);
        match Wal.read path with
        | Ok r ->
          (* the flip damaged exactly one record: replay stops there with
             the failure reported, keeping the good prefix *)
          Alcotest.(check bool) "good prefix" true (is_prefix_of accepted r.Wal.updates);
          Alcotest.(check bool) "flip reported" true (r.Wal.tail <> Wal.Clean)
        | Error _ -> () (* flip hit the header *)
      done)
    seeds

(* A hostile write syscall: at most [chunk] bytes per call, raising EINTR
   on a fixed cadence before anything is written.  Every durable path goes
   through Fsutil.write_all, which must still land every byte. *)
let with_short_writes ~chunk ~eintr_every f =
  let calls = ref 0 in
  Moq_durable.Fsutil.set_write_for_tests
    (Some
       (fun fd buf pos len ->
         incr calls;
         if eintr_every > 0 && !calls mod eintr_every = 0 then
           raise (Unix.Unix_error (Unix.EINTR, "write", ""));
         Unix.write fd buf pos (min chunk len)));
  Fun.protect ~finally:(fun () -> Moq_durable.Fsutil.set_write_for_tests None) f

let test_wal_short_writes () =
  List.iter
    (fun seed ->
      let path, accepted =
        with_short_writes ~chunk:3 ~eintr_every:5 (fun () -> wal_with seed)
      in
      match Wal.read path with
      | Ok r ->
        Alcotest.(check bool) "clean tail under short writes" true (r.Wal.tail = Wal.Clean);
        check_updates_equal "no byte lost" accepted r.Wal.updates
      | Error e -> Alcotest.failf "read failed: %s" e)
    seeds

let test_checkpoint_short_writes () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let dir = tmp_dir () in
      with_short_writes ~chunk:1 ~eintr_every:7 (fun () ->
          let store = Store.init ~fsync:false ~checkpoint_every:5 ~dir db in
          List.iter (fun u -> ignore (Store.append store u)) us;
          Store.close store);
      let reference = apply_lenient db us in
      match Store.recover ~dir with
      | Ok r ->
        Alcotest.(check string) "state identical under short writes"
          (db_str reference) (db_str r.Store.db)
      | Error e -> Alcotest.failf "recover failed: %s" e)
    seeds

(* ------------------------------------------------------------------ *)
(* Store: checkpoint + log recovery                                    *)
(* ------------------------------------------------------------------ *)

let test_store_recovery_equals_direct () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let dir = tmp_dir () in
      let store = Store.init ~fsync:false ~checkpoint_every:7 ~dir db in
      List.iter (fun u -> ignore (Store.append store u)) us;
      Store.close store;
      let reference = apply_lenient db us in
      match Store.recover ~dir with
      | Ok r ->
        Alcotest.(check string) "database" (db_str reference) (db_str r.Store.db);
        Alcotest.(check string) "clock"
          (Q.to_string (DB.last_update reference))
          (Q.to_string r.Store.clock);
        Alcotest.(check bool) "clean tail" true (r.Store.tail = Wal.Clean)
      | Error e -> Alcotest.failf "recover failed: %s" e)
    seeds

let test_store_corrupt_checkpoint_reported () =
  let db, _ = workload (List.hd seeds) in
  let dir = tmp_dir () in
  let store = Store.init ~fsync:false ~dir db in
  Store.close store;
  let ck = Filename.concat dir "checkpoint.mod" in
  let contents = IO.read_file ck in
  let faults = Faults.create ~seed:5 in
  IO.write_file ck (Faults.bit_flip faults contents);
  (match Store.recover ~dir with
   | Error _ -> () (* reported, not raised *)
   | Ok _ -> Alcotest.fail "expected checkpoint corruption to be reported");
  (* torn checkpoint (truncated mid-write) is also reported *)
  IO.write_file ck (String.sub contents 0 (String.length contents / 2));
  match Store.recover ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected torn checkpoint to be reported"

(* A rotated store keeps the previous checkpoint generation: losing the
   current one to any fault must fall back to prev + both WAL segments
   and land on the identical state. *)
let test_store_fallback_to_prev_checkpoint () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let dir = tmp_dir () in
      let store = Store.init ~fsync:false ~checkpoint_every:4 ~dir db in
      List.iter (fun u -> ignore (Store.append store u)) us;
      Store.close store;
      let reference = apply_lenient db us in
      let ck = Store.checkpoint_file dir in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: a previous generation exists" seed) true
        (Sys.file_exists (Store.checkpoint_prev_file dir));
      let contents = IO.read_file ck in
      let damage =
        [ ( "bit flip",
            fun () ->
              let faults = Faults.create ~seed:(seed + 11) in
              IO.write_file ck (Faults.bit_flip faults contents) );
          ( "truncation",
            fun () ->
              IO.write_file ck (String.sub contents 0 (String.length contents / 3)) );
          ("deletion", fun () -> Sys.remove ck) ]
      in
      List.iter
        (fun (what, break) ->
          IO.write_file ck contents;
          break ();
          match Store.recover ~dir with
          | Error e -> Alcotest.failf "seed %d %s: fallback failed: %s" seed what e
          | Ok r ->
            Alcotest.(check bool)
              (Printf.sprintf "seed %d %s: via fallback" seed what) true
              r.Store.fallback;
            Alcotest.(check string)
              (Printf.sprintf "seed %d %s: state identical" seed what)
              (db_str reference) (db_str r.Store.db))
        damage)
    seeds

let test_store_both_generations_corrupt () =
  let db, us = workload (List.hd seeds) in
  let dir = tmp_dir () in
  let store = Store.init ~fsync:false ~checkpoint_every:4 ~dir db in
  List.iter (fun u -> ignore (Store.append store u)) us;
  Store.close store;
  let faults = Faults.create ~seed:23 in
  List.iter
    (fun path -> IO.write_file path (Faults.bit_flip faults (IO.read_file path)))
    [ Store.checkpoint_file dir; Store.checkpoint_prev_file dir ];
  match Store.recover ~dir with
  | Error _ -> () (* reported, not raised *)
  | Ok _ -> Alcotest.fail "expected recovery to fail with both generations corrupt"

(* ------------------------------------------------------------------ *)
(* Checkpoint identity: the render cache writes db_to_string's bytes    *)
(* ------------------------------------------------------------------ *)

(* A random rational: small integers, fractions, and numerators past 2^62
   (Bigint's [Big] form), either sign. *)
let random_rat st =
  let n = Random.State.int st 2001 - 1000 and d = 1 + Random.State.int st 12 in
  match Random.State.int st 4 with
  | 0 -> q n
  | 1 -> Q.of_ints n d
  | 2 -> Q.of_string (Printf.sprintf "%d000000000000000000000/%d" n d)
  | _ -> Q.of_ints (n * 1_000_003) (d * 7919)

let random_vec st = Qvec.of_list [ random_rat st; random_rat st ]

let alive db =
  List.filter_map
    (fun (o, tr) -> if T.death tr = None then Some o else None)
    (DB.objects db)

(* [count] valid updates after [db]'s clock, each step 1/1..1/5 to 5/1
   after the last: [new] with a fresh OID, [chdir] or [terminate] of a
   live object. *)
let random_stream st db count =
  let rec go db tau acc k =
    if k = 0 then List.rev acc
    else begin
      let tau = Q.add tau (Q.of_ints (1 + Random.State.int st 5) (1 + Random.State.int st 5)) in
      let live = alive db in
      let pick () = List.nth live (Random.State.int st (List.length live)) in
      let u =
        match Random.State.int st 10 with
        | r when r < 3 || live = [] ->
          U.New { oid = 1 + List.fold_left max 0 (DB.oids db); tau; a = random_vec st;
                  b = random_vec st }
        | r when r < 8 -> U.Chdir { oid = pick (); tau; a = random_vec st }
        | _ -> U.Terminate { oid = pick (); tau }
      in
      go (DB.apply_exn db u) tau (u :: acc) (k - 1)
    end
  in
  go db (DB.last_update db) [] count

let checkpoint_text db =
  let payload = IO.db_to_string db in
  payload ^ "# crc " ^ Crc32.to_hex (Crc32.string payload) ^ "\n"

let wal_records dir =
  match Wal.read (Store.wal_file dir) with
  | Ok r -> List.length r.Wal.updates
  | Error e -> Alcotest.failf "wal unreadable: %s" e

(* Append [us]; after every rotation (the live log is empty again) the
   checkpoint file must be exactly [db_to_string] of the store's database
   plus its CRC trailer.  Returns how many rotations it saw. *)
let append_checking_rotations store dir us =
  List.fold_left
    (fun rotations u ->
      (match Store.append store u with
       | Ok () -> ()
       | Error e -> Alcotest.failf "append refused: %a" DB.pp_error e);
      if wal_records dir = 0 then begin
        let expected = checkpoint_text (Store.db store) in
        if IO.read_file (Store.checkpoint_file dir) <> expected then
          QCheck.Test.fail_reportf "checkpoint after %d rotations differs from db_to_string"
            rotations;
        rotations + 1
      end
      else rotations)
    0 us

let prop_checkpoint_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"every checkpoint equals db_to_string + trailer"
       QCheck.(pair small_nat (int_range 2 6))
       (fun (seed, every) ->
         let st = Random.State.make [| seed |] in
         let db0 =
           List.fold_left
             (fun db o ->
               DB.add_initial db o
                 (T.linear ~start:(q 0) ~a:(random_vec st) ~b:(random_vec st)))
             (DB.empty ~dim:2 ~tau:(q 0)) [ 1; 2; 3; 4; 5 ]
         in
         let dir = tmp_dir () in
         let store = Store.init ~fsync:false ~checkpoint_every:every ~dir db0 in
         let first = random_stream st db0 30 in
         let r1 = append_checking_rotations store dir first in
         Store.close store;
         (* reopened: the cache starts cold; then terminate an object the
            first store had cached, and carry on *)
         match Store.open_ ~fsync:false ~checkpoint_every:every ~dir () with
         | Error e -> QCheck.Test.fail_reportf "reopen failed: %s" e
         | Ok (store, _) ->
           let kill =
             match alive (Store.db store) with
             | victim :: _ ->
               [ U.Terminate { oid = victim; tau = Q.add (Store.clock store) Q.one } ]
             | [] -> []
           in
           let rest = random_stream st (DB.apply_all_exn (Store.db store) kill) 30 in
           let r2 = append_checking_rotations store dir (kill @ rest) in
           Store.checkpoint_now store;
           let forced = IO.read_file (Store.checkpoint_file dir) in
           Store.close store;
           r1 > 1 && r2 > 1 && forced = checkpoint_text (Store.db store)))

(* The WAL bound of store.mli: after any append or ingest (quarantine
   drain included) the live log holds at most [checkpoint_every - 1]
   records, also across a reopen that finds records already logged. *)
let test_wal_bound () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let dirty = Faults.mangle (Faults.create ~seed:(seed + 200)) us in
      let every = 4 in
      let dir = tmp_dir () in
      let check what =
        let n = wal_records dir in
        if n > every - 1 then
          Alcotest.failf "seed %d %s: wal.log holds %d records, bound %d" seed what n
            (every - 1)
      in
      let san = Sanitize.create () in
      let store = Store.init ~fsync:false ~checkpoint_every:every ~dir db in
      (* stop the first run past half-way, with records in the log *)
      let rec first i = function
        | u :: rest when i < List.length dirty / 2 || wal_records dir = 0 ->
          ignore (Store.ingest store san u);
          check "ingest";
          first (i + 1) rest
        | rest -> rest
      in
      let rest = first 0 dirty in
      Store.close store;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the reopened log has records" seed) true
        (rest = [] || wal_records dir > 0);
      match Store.open_ ~fsync:false ~checkpoint_every:every ~dir () with
      | Error e -> Alcotest.failf "seed %d: reopen failed: %s" seed e
      | Ok (store, _) ->
        List.iter
          (fun u ->
            ignore (Store.ingest store san u);
            check "ingest after reopen")
          rest;
        List.iter
          (fun u ->
            ignore (Store.append store u);
            check "append")
          (Gen.mixed_stream ~seed:(seed + 3) ~db:(Store.db store)
             ~start:(Store.clock store) ~gap:(q 1) ~count:10 ());
        Store.close store)
    seeds

(* ------------------------------------------------------------------ *)
(* Kill-and-recover: recovery + resumed monitor equals the             *)
(* uninterrupted run (the acceptance criterion)                        *)
(* ------------------------------------------------------------------ *)

let nearest_query hi = Fof.nearest_q ~interval:(Fof.Interval.closed (q 0) hi)

let monitor_timeline ~db ~hi us =
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let m = MonX.create ~db ~gdist ~query:(nearest_query hi) () in
  List.iter (fun u -> match MonX.apply_update m u with Ok () | Error _ -> ()) us;
  MonX.finalize m

module Oid = Moq_mod.Oid

(* Semantic equality: algebraic instants print their isolating interval,
   whose width depends on how much each run refined it — compare with the
   backend's exact instant comparison instead of the rendering. *)
let timeline_equal (a : MonX.TL.t) (b : MonX.TL.t) =
  List.length a = List.length b
  && List.for_all2
       (fun pa pb ->
         match pa, pb with
         | MonX.TL.Span (a1, a2, sa), MonX.TL.Span (b1, b2, sb) ->
           BX.compare_instant a1 b1 = 0 && BX.compare_instant a2 b2 = 0 && Oid.Set.equal sa sb
         | MonX.TL.At (a1, sa), MonX.TL.At (b1, sb) ->
           BX.compare_instant a1 b1 = 0 && Oid.Set.equal sa sb
         | _ -> false)
       a b

let check_timeline_equal msg expected actual =
  if not (timeline_equal expected actual) then
    Alcotest.failf "%s:@.expected:@.%a@.got:@.%a" msg MonX.TL.pp expected MonX.TL.pp
      actual

let test_kill_and_recover () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let hi = q 30 in
      (* uninterrupted reference run *)
      let reference = monitor_timeline ~db ~hi us in
      (* interrupted run: ingest a prefix, crash (torn tail), recover *)
      let faults = Faults.create ~seed:(seed * 7 + 1) in
      let kill_at = 1 + Faults.int faults (List.length us - 1) in
      let dir = tmp_dir () in
      let store = Store.init ~fsync:false ~checkpoint_every:5 ~dir db in
      List.iteri (fun i u -> if i < kill_at then ignore (Store.append store u)) us;
      Store.close store;
      (* simulate the crash arriving mid-append: tear bytes off the log *)
      let wal_path = Filename.concat dir "wal.log" in
      let contents = IO.read_file wal_path in
      let torn = 1 + Faults.int faults 4 in
      IO.write_file wal_path (String.sub contents 0 (max 0 (String.length contents - torn)));
      match Store.recover ~dir with
      | Error e -> Alcotest.failf "seed %d: recovery failed: %s" seed e
      | Ok r ->
        (* resume: a fresh monitor over the recovered db, replaying the
           stream; already-applied updates are stale and skip themselves *)
        let resumed = monitor_timeline ~db:r.Store.db ~hi us in
        check_timeline_equal
          (Printf.sprintf "seed %d (killed at %d, tore %d bytes): timelines equal" seed
             kill_at torn)
          reference resumed)
    seeds

(* ------------------------------------------------------------------ *)
(* Sanitizer under fault-injected streams                              *)
(* ------------------------------------------------------------------ *)

let test_sanitizer_fault_storm () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let faults = Faults.create ~seed in
      let dirty = Faults.mangle faults us in
      let san = Sanitize.create () in
      let final = Sanitize.ingest_all san db dirty in
      let c = Sanitize.counters san in
      Alcotest.(check bool) "no crash, clock monotone" true
        (Q.compare (DB.last_update final) (DB.last_update db) >= 0);
      Alcotest.(check bool) "every update classified" true
        (c.Sanitize.accepted + Sanitize.rejected san + c.Sanitize.unknown_oid
         + c.Sanitize.not_defined
         >= List.length dirty);
      (* determinism: same seed, same verdicts *)
      let faults2 = Faults.create ~seed in
      let dirty2 = Faults.mangle faults2 us in
      check_updates_equal "fault injection is deterministic" dirty dirty2;
      let san2 = Sanitize.create () in
      let final2 = Sanitize.ingest_all san2 db dirty2 in
      Alcotest.(check string) "same final db" (db_str final) (db_str final2))
    seeds

let test_store_ingest_faulty_stream () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let faults = Faults.create ~seed:(seed + 100) in
      let dirty = Faults.mangle faults us in
      let dir = tmp_dir () in
      let store = Store.init ~fsync:false ~checkpoint_every:6 ~dir db in
      let san = Sanitize.create () in
      List.iter (fun u -> ignore (Store.ingest store san u)) dirty;
      let in_memory = db_str (Store.db store) in
      Store.close store;
      match Store.recover ~dir with
      | Ok r ->
        Alcotest.(check string) "recovery equals in-memory state" in_memory (db_str r.Store.db)
      | Error e -> Alcotest.failf "recover failed: %s" e)
    seeds

(* ------------------------------------------------------------------ *)
(* Engine audit + self-healing rebuild                                 *)
(* ------------------------------------------------------------------ *)

let example_engine () =
  (* two linear curves crossing at t = 8 *)
  let line a b =
    Moq_poly.Piecewise.Qpiece.of_poly ~start:(q 0)
      (Moq_poly.Qpoly.of_list [ q b; q a ])
  in
  EX.create ~start:(q 0) ~horizon:(q 100)
    [ (EX.Obj (1, 0), line 1 0); (EX.Obj (2, 0), line (-1) 16) ]

let test_audit_clean () =
  let eng = example_engine () in
  Alcotest.(check (list string)) "clean at start" [] (EX.audit eng);
  EX.advance eng ~upto:(q 50) ~emit:(fun _ -> ());
  Alcotest.(check (list string)) "clean after events" [] (EX.audit eng);
  Alcotest.(check (list string)) "heal is a no-op when healthy" [] (EX.audit_and_heal eng);
  Alcotest.(check int) "no rebuilds" 0 (EX.stats eng).EX.rebuilds

(* A buggy caller jumps the clock without advancing, past a pending
   crossing, a pending death or a pending birth: monotone batch time is
   violated.  The audit finds it, [check_invariants] (its raising
   reading) raises, and the heal rebuilds a clean engine. *)
let test_audit_detects_skipped_events_and_heals () =
  let flat ?stop ~start c =
    Moq_poly.Piecewise.Qpiece.make ?stop [ (q start, Moq_poly.Qpoly.of_list [ q c ]) ]
  in
  let lone curve = EX.create ~start:(q 0) ~horizon:(q 100) [ (EX.Obj (1, 0), curve) ] in
  let heals what eng =
    EX.check_invariants eng;
    EX.sync_clock eng ~at:(q 10);
    Alcotest.(check bool) (what ^ ": violation found") true (EX.audit eng <> []);
    (match EX.check_invariants eng with
     | () -> Alcotest.failf "%s: check_invariants did not raise" what
     | exception Failure _ -> ());
    let healed = EX.audit_and_heal eng in
    Alcotest.(check bool) (what ^ ": heal reports the violations") true (healed <> []);
    Alcotest.(check int) (what ^ ": audit failure counted") 1 (EX.stats eng).EX.audit_failures;
    Alcotest.(check int) (what ^ ": rebuild performed") 1 (EX.stats eng).EX.rebuilds;
    Alcotest.(check (list string)) (what ^ ": clean after heal") [] (EX.audit eng);
    EX.check_invariants eng
  in
  (* a lone curve is compared with nothing: only the clock check sees these *)
  heals "clock past a pending death" (lone (flat ~stop:(q 5) ~start:0 1));
  heals "clock past a pending birth" (lone (flat ~start:6 1));
  let eng = example_engine () in
  heals "clock past a pending crossing" eng;
  (* the rebuild re-sorted at now = 10, which is past the crossing at 8:
     the order reflects the post-crossing world *)
  (match List.map EX.label (EX.order eng) with
   | [ EX.Obj (2, 0); EX.Obj (1, 0) ] -> ()
   | _ -> Alcotest.fail "order not re-sorted at the recovered clock")

let test_forced_rebuild_preserves_semantics () =
  List.iter
    (fun seed ->
      let db, us = workload seed in
      let hi = q 30 in
      let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
      let gdist = Gdist.euclidean_sq ~gamma in
      let run ~heal_every =
        let m = MonX.create ~db ~gdist ~query:(nearest_query hi) () in
        List.iteri
          (fun i u ->
            (match MonX.apply_update m u with Ok () | Error _ -> ());
            if heal_every > 0 && i mod heal_every = 0 then MonX.heal m)
          us;
        MonX.finalize m
      in
      let plain = run ~heal_every:0 in
      let healed = run ~heal_every:3 in
      check_timeline_equal
        (Printf.sprintf "seed %d: rebuild mid-stream preserves the timeline" seed)
        plain healed)
    seeds

let test_monitor_audit () =
  let db, us = workload (List.hd seeds) in
  let gamma = T.stationary ~start:(q 0) (Qvec.zero 2) in
  let gdist = Gdist.euclidean_sq ~gamma in
  let m = MonX.create ~db ~gdist ~query:(nearest_query (q 30)) () in
  List.iter (fun u -> match MonX.apply_update m u with Ok () | Error _ -> ()) us;
  Alcotest.(check (list string)) "monitor audit clean" [] (MonX.audit m);
  Alcotest.(check (list string)) "monitor heal no-op" [] (MonX.audit_and_heal m)

let () =
  Alcotest.run "durable"
    [ ("crc32",
       [ Alcotest.test_case "known vectors" `Quick test_crc32;
         Alcotest.test_case "slicing-by-8 equals the bitwise reference" `Quick
           test_crc32_slicing;
         Alcotest.test_case "update over pieces equals string" `Quick test_crc32_pieces ]);
      ("wal",
       [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
         Alcotest.test_case "truncated tail tolerated" `Quick test_wal_truncated_tail;
         Alcotest.test_case "bit flips detected" `Quick test_wal_bit_flip;
         Alcotest.test_case "short writes and EINTR lose nothing" `Quick
           test_wal_short_writes;
       ]);
      ("store",
       [ Alcotest.test_case "recovery equals direct application" `Quick
           test_store_recovery_equals_direct;
         Alcotest.test_case "corrupt checkpoint reported" `Quick
           test_store_corrupt_checkpoint_reported;
         Alcotest.test_case "fallback to previous checkpoint" `Quick
           test_store_fallback_to_prev_checkpoint;
         Alcotest.test_case "both generations corrupt reported" `Quick
           test_store_both_generations_corrupt;
         Alcotest.test_case "kill-and-recover equals uninterrupted run" `Quick
           test_kill_and_recover;
         Alcotest.test_case "checkpoint under short writes" `Quick
           test_checkpoint_short_writes;
         prop_checkpoint_identity;
         Alcotest.test_case "wal.log stays under checkpoint_every" `Quick test_wal_bound;
       ]);
      ("sanitize",
       [ Alcotest.test_case "fault storm" `Quick test_sanitizer_fault_storm;
         Alcotest.test_case "faulty stream through the store" `Quick
           test_store_ingest_faulty_stream;
       ]);
      ("audit",
       [ Alcotest.test_case "clean engine" `Quick test_audit_clean;
         Alcotest.test_case "skipped events detected and healed" `Quick
           test_audit_detects_skipped_events_and_heals;
         Alcotest.test_case "forced rebuild preserves semantics" `Quick
           test_forced_rebuild_preserves_semantics;
         Alcotest.test_case "monitor audit" `Quick test_monitor_audit;
       ]);
    ]
