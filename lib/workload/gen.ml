module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module DB = Moq_mod.Mobdb
module U = Moq_mod.Update

let q = Q.of_int

let rand_int st lo hi = lo + Prng.int st (hi - lo + 1)

let rand_vec st dim bound =
  Qvec.of_list (List.init dim (fun _ -> q (rand_int st (- bound) bound)))

let uniform_db ~seed ~n ?(dim = 2) ?(extent = 1000) ?(speed = 10) () =
  let st = Prng.create seed in
  let db = DB.empty ~dim ~tau:(q 0) in
  let rec add db i =
    if i > n then db
    else begin
      let tr =
        T.linear ~start:(q 0) ~a:(rand_vec st dim speed) ~b:(rand_vec st dim extent)
      in
      add (DB.add_initial db i tr) (i + 1)
    end
  in
  add db 1

let clustered_db ~seed ~n ?(dim = 2) ?(clusters = 0) ?(spacing = 10_000)
    ?(spread = 200) ?(speed = 5) () =
  let st = Prng.create seed in
  let clusters = if clusters > 0 then clusters else max 1 (n / 100) in
  let w = int_of_float (Float.ceil (sqrt (float_of_int clusters))) in
  let center d c =
    (* cluster 0 sits at the origin; the rest march along a grid row by
       row, [spacing] apart — far enough that distant clusters never
       interact with an origin-anchored query *)
    if c = 0 then Q.zero
    else if d = 0 then q (c mod w * spacing)
    else if d = 1 then q (c / w * spacing)
    else Q.zero
  in
  let db = DB.empty ~dim ~tau:(q 0) in
  let rec add db i =
    if i > n then db
    else begin
      let c = (i - 1) mod clusters in
      let b =
        Qvec.of_list
          (List.init dim (fun d ->
               Q.add (center d c) (q (rand_int st (-spread) spread))))
      in
      let tr = T.linear ~start:(q 0) ~a:(rand_vec st dim speed) ~b in
      add (DB.add_initial db i tr) (i + 1)
    end
  in
  add db 1

(* A permutation of 0..n-1 with exactly [k] inversions: start from the
   identity and repeatedly swap a random adjacent in-order pair (each such
   swap adds exactly one inversion). *)
let permutation_with_inversions st n k =
  let p = Array.init n (fun i -> i) in
  let k = min k (n * (n - 1) / 2) in
  let made = ref 0 in
  while !made < k do
    let i = Prng.int st (n - 1) in
    if p.(i) < p.(i + 1) then begin
      let x = p.(i) in
      p.(i) <- p.(i + 1);
      p.(i + 1) <- x;
      incr made
    end
  done;
  p

let inversions_db ~seed ~n ~inversions ~horizon =
  if Q.sign horizon <= 0 then invalid_arg "Gen.inversions_db: horizon must be positive";
  let st = Prng.create seed in
  let p = permutation_with_inversions st n inversions in
  let db = DB.empty ~dim:1 ~tau:(q 0) in
  (* object i: height i at time 0, height p(i)·n + i/(n+1) at the horizon —
     the fractional epsilon keeps crossing times generically distinct *)
  let rec add db i =
    if i >= n then db
    else begin
      let b = q i in
      let target = Q.add (q (p.(i) * n)) (Q.div (q i) (q (n + 1))) in
      let a = Q.div (Q.sub target b) horizon in
      let tr = T.linear ~start:(q 0) ~a:(Qvec.of_list [ a ]) ~b:(Qvec.of_list [ b ]) in
      add (DB.add_initial db (i + 1) tr) (i + 1)
    end
  in
  add db 0

(* Engineered degeneracies for the filtered backend: curve pairs whose
   g-distance difference has a double root (tangency) or two roots a hair
   apart (near-tangency) — exactly where a float filter must fall back to
   exact arithmetic instead of guessing. *)
let tangency_db ~seed ~n () =
  let st = Prng.create seed in
  let db = DB.empty ~dim:2 ~tau:(q 0) in
  let eps = Q.of_ints 1 1_000_000 in
  let rec add db j =
    if 2 * j >= n then db
    else begin
      let c = q (j + 1) in
      (* tangency instant *)
      let k = q (rand_int st 1 5) in
      (* offset from the origin query point *)
      let k' =
        match j mod 3 with
        | 0 -> k (* exact tangency: d² difference is 3(t-c)², a double root *)
        | 1 -> Q.add k eps (* grazing pass: minimum of the difference ~ 0, no root *)
        | _ -> Q.sub k eps (* near-tangency: two roots O(√eps) apart *)
      in
      (* A at (t-c, k), B at (2(t-c), k'): d² to the origin differ by
         3(t-c)² + (k'² - k²). *)
      let tra =
        T.linear ~start:(q 0)
          ~a:(Qvec.of_list [ q 1; q 0 ])
          ~b:(Qvec.of_list [ Q.neg c; k ])
      in
      let trb =
        T.linear ~start:(q 0)
          ~a:(Qvec.of_list [ q 2; q 0 ])
          ~b:(Qvec.of_list [ Q.mul (q (-2)) c; k' ])
      in
      let db = DB.add_initial db (2 * j + 1) tra in
      let db = DB.add_initial db (2 * j + 2) trb in
      add db (j + 1)
    end
  in
  add db 0

(* All trajectories pass through the common point (at, y0): every pair
   crosses simultaneously at [at], so the sweep pops one N-way batch —
   the simultaneous-crossing stress case. *)
let pencil_db ~seed ~n ~at () =
  let st = Prng.create seed in
  let y0 = q (rand_int st (-5) 5) in
  let db = DB.empty ~dim:1 ~tau:(q 0) in
  let rec add db i =
    if i > n then db
    else begin
      let s = q i in
      (* distinct slopes, common point: x_i(t) = y0 + s_i (t - at) *)
      let tr =
        T.linear ~start:(q 0)
          ~a:(Qvec.of_list [ s ])
          ~b:(Qvec.of_list [ Q.sub y0 (Q.mul s at) ])
      in
      add (DB.add_initial db i tr) (i + 1)
    end
  in
  add db 1

(* The objects of a fixed list live at a time, as their ranks in it: a
   Fenwick tree of 0/1 counts, so that entering, leaving and finding the
   k-th live object each take O(log N). *)
module Live = struct
  type t = { tree : int array; mutable size : int }

  let create n = { tree = Array.make (n + 1) 0; size = 0 }

  let update t rank d =
    let i = ref (rank + 1) in
    while !i < Array.length t.tree do
      t.tree.(!i) <- t.tree.(!i) + d;
      i := !i + (!i land - !i)
    done;
    t.size <- t.size + d

  (* the rank of the [k]-th (from 0) live object *)
  let nth t k =
    let n = Array.length t.tree - 1 in
    let step = ref 1 in
    while 2 * !step <= n do step := 2 * !step done;
    let pos = ref 0 and rest = ref k in
    while !step > 0 do
      let next = !pos + !step in
      if next <= n && t.tree.(next) <= !rest then begin
        pos := next;
        rest := !rest - t.tree.(next)
      end;
      step := !step / 2
    done;
    !pos
end

(* The live set at each update's time follows [db]'s own lifetimes,
   kept in OID order as [DB.live] lists them: objects enter at their
   birth and leave after their death.  A chdir keeps the birth and
   clears the death ([T.chdir]), so an object chdir'd before its death
   never leaves. *)
let chdir_stream ~seed ~db ~start ~gap ~count ?(speed = 10) () =
  let st = Prng.create seed in
  let dim = DB.dim db in
  let objs = Array.of_list (DB.objects db) in
  let n = Array.length objs in
  let by f = List.sort (fun a b -> Q.compare (f a) (f b)) in
  let births = Array.of_list (by (fun r -> T.birth (snd objs.(r))) (List.init n Fun.id)) in
  let deaths =
    Array.of_list
      (by (fun r -> Option.get (T.death (snd objs.(r))))
         (List.filter (fun r -> T.death (snd objs.(r)) <> None) (List.init n Fun.id)))
  in
  let live = ref (Live.create n) and born = ref 0 and dead = ref 0 and last = ref None in
  let revived = Array.make n false in
  let live_at tau =
    (match !last with
     | Some t when Q.compare tau t < 0 ->
       live := Live.create n;
       born := 0;
       dead := 0
     | _ -> ());
    last := Some tau;
    while !born < n && Q.compare (T.birth (snd objs.(births.(!born)))) tau <= 0 do
      Live.update !live births.(!born) 1;
      incr born
    done;
    while !dead < Array.length deaths
          && Q.compare (Option.get (T.death (snd objs.(deaths.(!dead))))) tau < 0 do
      (* born by now: its birth is no later than its death *)
      if not revived.(deaths.(!dead)) then Live.update !live deaths.(!dead) (-1);
      incr dead
    done;
    !live
  in
  let rec go acc db i =
    if i > count then List.rev acc
    else begin
      let tau = Q.add start (Q.mul (q i) gap) in
      let live = live_at tau in
      if live.Live.size = 0 then List.rev acc
      else begin
        let rank = Live.nth live (Prng.int st live.Live.size) in
        revived.(rank) <- true;
        let o = fst objs.(rank) in
        let u = U.Chdir { oid = o; tau; a = rand_vec st dim speed } in
        go (u :: acc) (DB.apply_exn db u) (i + 1)
      end
    end
  in
  go [] db 1

(* GPS-style sampled trace: each object alternates dwell phases (parked,
   with sub-metre jitter an ingest quantisation threshold should absorb)
   and travel phases (a velocity held for a few samples).  Positions live
   on a 1/100 grid so the CSV round-trips exactly through decimal
   notation.  Rows come out sorted by (t, oid), like a real trace file. *)
let trace_like ~seed ~n ~steps ?(dt = Q.one) ?(extent = 1000) ?(speed = 10)
    ?(pause = 30) () =
  if n <= 0 || steps <= 0 then invalid_arg "Gen.trace_like";
  if Q.sign dt <= 0 then invalid_arg "Gen.trace_like: dt must be positive";
  let st = Prng.create seed in
  let centi k = Q.of_ints k 100 in
  (* per-object mutable state: position, velocity, samples left in phase *)
  let pos = Array.init n (fun _ -> Array.init 2 (fun _ -> q (rand_int st (-extent) extent))) in
  let vel = Array.make n [| Q.zero; Q.zero |] in
  let hold = Array.make n 0 in
  let rows = ref [] in
  for step = 0 to steps - 1 do
    let t = Q.mul (q step) dt in
    for o = 0 to n - 1 do
      if step > 0 then begin
        if hold.(o) = 0 then begin
          if Prng.int st 100 < pause then begin
            vel.(o) <- [| Q.zero; Q.zero |];
            hold.(o) <- rand_int st 2 5
          end
          else begin
            vel.(o) <-
              Array.init 2 (fun _ ->
                  Q.add (q (rand_int st (-speed) speed))
                    (centi (rand_int st (-99) 99)));
            hold.(o) <- rand_int st 2 6
          end
        end;
        hold.(o) <- hold.(o) - 1;
        let parked = Array.for_all (fun v -> Q.sign v = 0) vel.(o) in
        pos.(o) <-
          Array.mapi
            (fun d x ->
              if parked then
                (* dwell jitter, well under any sane quantisation threshold *)
                Q.add x (centi (rand_int st (-3) 3))
              else Q.add x (Q.mul vel.(o).(d) dt))
            pos.(o)
      end;
      rows := (o + 1, t, Qvec.of_list (Array.to_list pos.(o))) :: !rows
    done
  done;
  List.rev !rows

(* The live set follows [db]'s own lifetimes, as in [chdir_stream], and
   the stream's own updates: a [new] enters at the next rank (its OID is
   above every other), a [terminate] schedules the object's leaving, and
   a chdir clears whatever death was scheduled.  [death.(r)] is the
   object's death as the MOD holds it, so a scheduled leaving that a
   later update moved or cleared is skipped. *)
let mixed_stream ~seed ~db ~start ~gap ~count ?(speed = 10) ?(extent = 1000) () =
  let st = Prng.create seed in
  let dim = DB.dim db in
  let objs = Array.of_list (DB.objects db) in
  let n0 = Array.length objs in
  let n = n0 + max count 0 in
  let oid = Array.make n 0 and death = Array.make n None and in_set = Array.make n false in
  Array.iteri (fun r (o, tr) -> oid.(r) <- o; death.(r) <- T.death tr) objs;
  let by f = List.sort (fun a b -> Q.compare (f a) (f b)) in
  let births = Array.of_list (by (fun r -> T.birth (snd objs.(r))) (List.init n0 Fun.id)) in
  let deaths =
    Array.of_list
      (by fst (List.filter_map (fun r -> Option.map (fun d -> (d, r)) death.(r)) (List.init n0 Fun.id)))
  in
  let terminated = Queue.create () in
  let live = Live.create n and born = ref 0 and dead = ref 0 and added = ref 0 in
  let enter r = if not in_set.(r) then (in_set.(r) <- true; Live.update live r 1) in
  let leave (d, r) =
    match death.(r) with
    | Some d' when d' == d && in_set.(r) -> in_set.(r) <- false; Live.update live r (-1)
    | _ -> ()
  in
  let live_at tau =
    while !born < n0 && Q.compare (T.birth (snd objs.(births.(!born)))) tau <= 0 do
      enter births.(!born);
      incr born
    done;
    while !dead < Array.length deaths && Q.compare (fst deaths.(!dead)) tau < 0 do
      leave deaths.(!dead);
      incr dead
    done;
    while (not (Queue.is_empty terminated)) && Q.compare (fst (Queue.peek terminated)) tau < 0 do
      leave (Queue.pop terminated)
    done
  in
  let next_oid = ref (1 + List.fold_left max 0 (DB.oids db)) in
  let rec go acc db i =
    if i > count then List.rev acc
    else begin
      let tau = Q.add start (Q.mul (q i) gap) in
      live_at tau;
      let roll = Prng.int st 10 in
      let u =
        if roll < 2 || live.Live.size = 0 then begin
          let o = !next_oid in
          incr next_oid;
          let r = n0 + !added in
          incr added;
          oid.(r) <- o;
          enter r;
          U.New { oid = o; tau; a = rand_vec st dim speed; b = rand_vec st dim extent }
        end
        else begin
          let r = Live.nth live (Prng.int st live.Live.size) in
          if roll = 2 && live.Live.size > 1 then begin
            death.(r) <- Some tau;
            Queue.push (tau, r) terminated;
            U.Terminate { oid = oid.(r); tau }
          end
          else begin
            death.(r) <- None;
            U.Chdir { oid = oid.(r); tau; a = rand_vec st dim speed }
          end
        end
      in
      go (u :: acc) (DB.apply_exn db u) (i + 1)
    end
  in
  go [] db 1
