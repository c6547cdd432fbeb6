(* Filtered backend ≡ Exact backend, on hundreds of seeded workloads.

   The filtered backend answers from float intervals when they are
   conclusive and falls back to exact arithmetic otherwise, so its event
   sequence, final order and support sets must be bit-identical to the
   exact backend's — including on the engineered tangency, near-tangency
   and simultaneous-crossing workloads where a bare float backend guesses
   wrong.  Also checks the filter's own accounting: hits + misses equals
   the number of filtered decisions. *)

module Q = Moq_numeric.Rat
module Qvec = Moq_geom.Vec.Qvec
module T = Moq_mod.Trajectory
module Oid = Moq_mod.Oid
module A = Moq_poly.Algnum
module Core = Moq_core
module BX = Core.Backend.Exact
module BFl = Core.Backend.Filtered
module KnnX = Core.Knn.Make (BX)
module KnnFl = Core.Knn.Make (BFl)
module Gdist = Core.Gdist
module Gen = Moq_workload.Gen
module Sink = Moq_obs.Sink
module Registry = Moq_obs.Registry

let q = Q.of_int
let origin dim = T.linear ~start:(q 0) ~a:(Qvec.zero dim) ~b:(Qvec.zero dim)

(* Normalized timeline pieces, instants as exact algebraic numbers. *)
type npiece =
  | NSpan of A.t * A.t * int list
  | NAt of A.t * int list

let norm_exact (tl : KnnX.TL.t) =
  List.map
    (function
      | KnnX.TL.Span (a, b, s) -> NSpan (a, b, Oid.Set.elements s)
      | KnnX.TL.At (a, s) -> NAt (a, Oid.Set.elements s))
    tl

let norm_filtered (tl : KnnFl.TL.t) =
  List.map
    (function
      | KnnFl.TL.Span (a, b, s) ->
        NSpan (BFl.to_algnum a, BFl.to_algnum b, Oid.Set.elements s)
      | KnnFl.TL.At (a, s) -> NAt (BFl.to_algnum a, Oid.Set.elements s))
    tl

let npiece_equal p p' =
  match p, p' with
  | NSpan (a, b, s), NSpan (a', b', s') ->
    A.compare a a' = 0 && A.compare b b' = 0 && s = s'
  | NAt (a, s), NAt (a', s') -> A.compare a a' = 0 && s = s'
  | _ -> false

let pp_npiece fmt = function
  | NSpan (a, b, s) ->
    Format.fprintf fmt "span(%a,%a):{%a}" A.pp a A.pp b
      Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
      s
  | NAt (a, s) ->
    Format.fprintf fmt "at(%a):{%a}" A.pp a
      Format.(pp_print_list ~pp_sep:(fun f () -> pp_print_string f ",") pp_print_int)
      s

(* One workload, checked end to end: timelines (event sequence + support
   sets per span/instant), sweep statistics, and the final engine order. *)
let check_workload name ~db ~gdist ~k ~lo ~hi =
  let rx = KnnX.run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi in
  let rf = KnnFl.run_obs ~sink:Sink.noop ~db ~gdist ~k ~lo ~hi in
  let nx = norm_exact rx.KnnX.timeline and nf = norm_filtered rf.KnnFl.timeline in
  if List.length nx <> List.length nf then
    Alcotest.failf "%s: piece counts differ (exact %d, filtered %d)" name (List.length nx)
      (List.length nf);
  List.iteri
    (fun i (px, pf) ->
      if not (npiece_equal px pf) then
        Alcotest.failf "%s: piece %d differs: exact %a, filtered %a" name i pp_npiece px
          pp_npiece pf)
    (List.combine nx nf);
  let sx = rx.KnnX.stats and sf = rf.KnnFl.stats in
  if
    sx.KnnX.E.crossings <> sf.KnnFl.E.crossings
    || sx.KnnX.E.swaps <> sf.KnnFl.E.swaps
    || sx.KnnX.E.births <> sf.KnnFl.E.births
    || sx.KnnX.E.deaths <> sf.KnnFl.E.deaths
    || sx.KnnX.E.batches <> sf.KnnFl.E.batches
  then
    Alcotest.failf "%s: sweep stats differ (exact %d/%d/%d/%d/%d, filtered %d/%d/%d/%d/%d)"
      name sx.KnnX.E.crossings sx.KnnX.E.swaps sx.KnnX.E.births sx.KnnX.E.deaths
      sx.KnnX.E.batches sf.KnnFl.E.crossings sf.KnnFl.E.swaps sf.KnnFl.E.births
      sf.KnnFl.E.deaths sf.KnnFl.E.batches;
  (* Final order via fresh engines advanced to the horizon. *)
  let engx = KnnX.engine ~db ~gdist ~lo ~hi () in
  KnnX.E.advance engx ~upto:hi ~emit:(fun _ -> ());
  let engf = KnnFl.engine ~db ~gdist ~lo ~hi () in
  KnnFl.E.advance engf ~upto:hi ~emit:(fun _ -> ());
  let ox =
    List.map (fun e -> Format.asprintf "%a" KnnX.E.pp_label (KnnX.E.label e)) (KnnX.E.order engx)
  in
  let off =
    List.map
      (fun e -> Format.asprintf "%a" KnnFl.E.pp_label (KnnFl.E.label e))
      (KnnFl.E.order engf)
  in
  Alcotest.(check (list string)) (name ^ ": final order") ox off

let euclid_origin = Gdist.euclidean_sq ~gamma:(origin 2)
let coord0 = Gdist.coordinate 0

(* >= 200 seeded workloads across four families; counter bookkeeping is
   asserted over the whole batch. *)
let test_filtered_equals_exact () =
  BFl.reset_filter_stats ();
  for seed = 1 to 100 do
    let db = Gen.inversions_db ~seed ~n:8 ~inversions:16 ~horizon:(q 50) in
    check_workload
      (Printf.sprintf "inversions seed %d" seed)
      ~db ~gdist:coord0 ~k:2 ~lo:(q 0) ~hi:(q 50)
  done;
  for seed = 1 to 60 do
    let db = Gen.uniform_db ~seed ~n:6 ~dim:2 ~extent:40 ~speed:4 () in
    check_workload
      (Printf.sprintf "uniform seed %d" seed)
      ~db ~gdist:euclid_origin ~k:2 ~lo:(q 0) ~hi:(q 25)
  done;
  for seed = 1 to 20 do
    let db = Gen.tangency_db ~seed ~n:8 () in
    check_workload
      (Printf.sprintf "tangency seed %d" seed)
      ~db ~gdist:euclid_origin ~k:3 ~lo:(q 0) ~hi:(q 20)
  done;
  for seed = 1 to 20 do
    let db = Gen.pencil_db ~seed ~n:7 ~at:(q 5) () in
    check_workload
      (Printf.sprintf "pencil seed %d" seed)
      ~db ~gdist:coord0 ~k:2 ~lo:(q 0) ~hi:(q 10)
  done;
  let s = BFl.filter_stats () in
  Alcotest.(check int) "hits + misses = decisions" s.BFl.decisions (s.BFl.hits + s.BFl.misses);
  Alcotest.(check bool) "made decisions" true (s.BFl.decisions > 0);
  Alcotest.(check bool) "some hits" true (s.BFl.hits > 0);
  Alcotest.(check bool) "some misses (degenerate cases fell back)" true (s.BFl.misses > 0)

(* The counters survive the sink round-trip with the documented names. *)
let test_publish () =
  BFl.reset_filter_stats ();
  let db = Gen.uniform_db ~seed:7 ~n:5 ~dim:2 ~extent:30 ~speed:3 () in
  let (_ : KnnFl.result) =
    KnnFl.run_obs ~sink:Sink.noop ~db ~gdist:euclid_origin ~k:2 ~lo:(q 0) ~hi:(q 20)
  in
  let reg = Registry.create () in
  let sink = Sink.of_registry reg in
  BFl.publish sink;
  let s = BFl.filter_stats () in
  Alcotest.(check (option int)) "hit counter" (Some s.BFl.hits)
    (Registry.counter_value reg "moq_filter_hit");
  Alcotest.(check (option int)) "miss counter" (Some s.BFl.misses)
    (Registry.counter_value reg "moq_filter_miss");
  Alcotest.(check bool) "fallback_ns present" true
    (Registry.counter_value reg "moq_filter_fallback_ns" <> None)

(* Tangency workloads must make the filter fall back: an exact tangency
   cannot be decided by outward-rounded intervals. *)
let test_tangency_forces_fallback () =
  BFl.reset_filter_stats ();
  let db = Gen.tangency_db ~seed:3 ~n:6 () in
  let (_ : KnnFl.result) =
    KnnFl.run_obs ~sink:Sink.noop ~db ~gdist:euclid_origin ~k:2 ~lo:(q 0) ~hi:(q 10)
  in
  let s = BFl.filter_stats () in
  Alcotest.(check bool) "tangencies fell back" true (s.BFl.misses > 0)

(* Both backends print the same number as the same bytes, and round it
   to the same float: the server evaluates on Filtered but must put
   Exact's instants and aggregation rows on the wire. *)
let test_pp_instant_bytes () =
  let poly cs = Moq_poly.Qpoly.of_list cs in
  let qs a b = Q.of_ints a b in
  let show pp i = Format.asprintf "%a" pp i in
  let check what ex fl =
    Alcotest.(check string) what (show BX.pp_instant ex) (show BFl.pp_instant fl);
    (* aggregation densities are sums of these floats *)
    Alcotest.(check int64) (what ^ " float bits")
      (Int64.bits_of_float (BX.instant_to_float ex))
      (Int64.bits_of_float (BFl.instant_to_float fl))
  in
  (* every root of [p] from each start, via both root entry points; the
     Filtered copy is compared against its neighbours first, so its
     enclosure has been refined before it prints *)
  let roots what p starts =
    List.iter
      (fun s ->
        let ex = BX.first_root_after p (BX.instant_of_scalar s)
        and fl = BFl.first_root_after p (BFl.instant_of_scalar s) in
        let ex' = BX.first_root_at_or_after p s
        and fl' = BFl.first_root_at_or_after p s in
        match ex, fl, ex', fl' with
        | Some ex, Some fl, Some ex', Some fl' ->
          ignore (BFl.compare_instant fl (BFl.instant_of_scalar s));
          ignore (BFl.compare_instant fl fl');
          check (what ^ " after") ex fl;
          check (what ^ " at or after") ex' fl'
        | None, None, None, None -> ()
        | _ -> Alcotest.failf "%s: backends disagree on a root" what)
      starts
  in
  let linear = poly [ qs (-133) 300; Q.one ] in
  roots "linear crossing" linear [ q 0 ];
  roots "negated linear crossing" (Moq_poly.Qpoly.neg linear) [ q 0 ];
  roots "linear crossing, scaled" (poly [ q (-7); qs 3 2 ]) [ q 0 ];
  roots "irrational quadratic" (poly [ q (-2); q 0; q 1 ]) [ q (-10); q 0 ];
  roots "irrational distance curve" (poly [ q (-11); q 3; q 2 ]) [ q (-10); q 0 ];
  (* (t - 1/3)(t - 5) *)
  roots "rational quadratic" (poly [ qs 5 3; qs (-16) 3; q 1 ]) [ q (-10); q 0; q 1 ];
  (* roots a bisection step lands on exactly, which print as rationals:
     1/3 and +-1 in the canonical refinement from the Cauchy-bound
     interval, 0 already during root isolation *)
  roots "linear root on a bisection midpoint" (poly [ qs (-1) 3; q 1 ]) [ q 0 ];
  roots "quadratic roots on bisection midpoints" (poly [ q (-1); q 0; q 1 ]) [ q (-10); q 0 ];
  roots "quadratic root isolated at a midpoint" (poly [ q 0; q (-1); q 1 ]) [ q (-10); q 0 ];
  List.iter
    (fun s ->
      check ("scalar " ^ Q.to_string s) (BX.instant_of_scalar s) (BFl.instant_of_scalar s))
    [ q 0; q (-3); qs 133 300; qs 1 2; qs (-7) 1024 ]

let () =
  Alcotest.run "filtered-backend"
    [
      ( "filtered-vs-exact",
        [
          Alcotest.test_case "≥200 seeded workloads identical" `Slow
            test_filtered_equals_exact;
          Alcotest.test_case "publish counter names" `Quick test_publish;
          Alcotest.test_case "tangency forces exact fallback" `Quick
            test_tangency_forces_fallback;
          Alcotest.test_case "pp_instant bytes equal Exact's" `Quick
            test_pp_instant_bytes;
        ] );
    ]
