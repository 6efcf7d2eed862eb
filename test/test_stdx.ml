(** Tests for the utility substrate: rational arithmetic laws,
    union-find, list helpers, and the watchdog's two-stage
    escalation (driven deterministically, no monitor domain). *)

open Stdx

let qgen =
  QCheck.Gen.(
    map2
      (fun n d -> Q.mk n d)
      (int_range (-50) 50)
      (oneof [ int_range 1 12; int_range (-12) (-1) ]))

let arb_q = QCheck.make ~print:Q.to_string qgen

(* Mostly integers, some of them large, so both the integer fast paths
   and the general path run. *)
let arb_qi =
  QCheck.make ~print:Q.to_string
    QCheck.Gen.(
      frequency
        [
          (3, map Q.of_int (int_range (-1_000_000) 1_000_000));
          (1, map Q.of_int (int_range (-3) 3));
          (1, qgen);
        ])

let prop name count arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb law)

let q_props =
  [
    prop "add-comm" 500
      (QCheck.pair arb_q arb_q)
      (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a));
    prop "add-assoc" 500
      (QCheck.triple arb_q arb_q arb_q)
      (fun (a, b, c) ->
        Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c));
    prop "mul-distributes" 500
      (QCheck.triple arb_q arb_q arb_q)
      (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "sub-inverse" 500
      (QCheck.pair arb_q arb_q)
      (fun (a, b) -> Q.equal (Q.add (Q.sub a b) b) a);
    prop "compare-antisym" 500
      (QCheck.pair arb_q arb_q)
      (fun (a, b) -> Q.compare a b = -Q.compare b a);
    prop "normalized" 500 arb_q (fun a ->
        Q.den a > 0 && (Q.num a = 0 || abs (Q.num a) > 0));
    prop "floor-le" 500 arb_q (fun a ->
        Q.leq (Q.of_int (Q.floor a)) a && Q.lt a (Q.of_int (Q.floor a + 1)));
    prop "ceil-ge" 500 arb_q (fun a ->
        Q.geq (Q.of_int (Q.ceil a)) a && Q.gt a (Q.of_int (Q.ceil a - 1)));
    prop "inv-mul" 500 arb_q (fun a ->
        QCheck.assume (not (Q.equal a Q.zero));
        Q.equal (Q.mul a (Q.inv a)) Q.one);
    (* [add], [mul] and [compare] short-cut integer operands; they must
       agree with the general cross-multiplying path through [Q.mk]. *)
    prop "int-fast-paths" 1000
      (QCheck.pair arb_qi arb_qi)
      (fun (a, b) ->
        let na = Q.num a and da = Q.den a and nb = Q.num b and db = Q.den b in
        Q.equal (Q.add a b) (Q.mk ((na * db) + (nb * da)) (da * db))
        && Q.equal (Q.mul a b) (Q.mk (na * nb) (da * db))
        && Q.compare a b = compare (na * db) (nb * da));
  ]

let test_q_units () =
  Alcotest.(check bool) "1/2 + 1/2 = 1" true Q.(equal (add half half) one);
  Alcotest.(check bool) "1/3 lt 1/2" true (Q.lt (Q.mk 1 3) Q.half);
  Alcotest.(check int) "floor -3/2" (-2) (Q.floor (Q.mk (-3) 2));
  Alcotest.(check int) "ceil -3/2" (-1) (Q.ceil (Q.mk (-3) 2));
  Alcotest.(check string) "pp" "5/3" (Q.to_string (Q.mk 10 6))

let overflow = Checked.Overflow

let test_q_overflow () =
  Alcotest.check_raises "max_int + 1" overflow (fun () ->
      ignore (Q.add (Q.of_int max_int) Q.one));
  Alcotest.check_raises "min_int - 1" overflow (fun () ->
      ignore (Q.sub (Q.of_int min_int) Q.one));
  Alcotest.check_raises "max_int * 2" overflow (fun () ->
      ignore (Q.mul (Q.of_int max_int) (Q.of_int 2)));
  Alcotest.check_raises "(max_int/2) * (1/3 + 1)" overflow (fun () ->
      ignore (Q.mul (Q.of_int (max_int / 2)) (Q.mk 4 3)));
  (* [min_int] has no negation: these used to wrap. *)
  Alcotest.check_raises "Q.neg min_int" overflow (fun () ->
      ignore (Q.neg (Q.of_int min_int)));
  Alcotest.check_raises "Q.sub 0 min_int" overflow (fun () ->
      ignore (Q.sub Q.zero (Q.of_int min_int)));
  Alcotest.check_raises "Q.mk 1 min_int" overflow (fun () ->
      ignore (Q.mk 1 min_int));
  Alcotest.check_raises "Q.abs min_int" overflow (fun () ->
      ignore (Q.abs (Q.of_int min_int)));
  Alcotest.(check string) "Q.mk min_int 3 stays normalized"
    (string_of_int min_int ^ "/3") (Q.to_string (Q.mk min_int 3))

let test_checked_units () =
  Alcotest.check_raises "min_int * -1" overflow (fun () ->
      ignore (Checked.mul min_int (-1)));
  Alcotest.check_raises "-1 * min_int" overflow (fun () ->
      ignore (Checked.mul (-1) min_int));
  Alcotest.check_raises "0 - min_int" overflow (fun () ->
      ignore (Checked.sub 0 min_int));
  Alcotest.check_raises "neg min_int" overflow (fun () ->
      ignore (Checked.neg min_int));
  Alcotest.check_raises "min_int / -1" overflow (fun () ->
      ignore (Checked.div min_int (-1)));
  Alcotest.(check int) "-1 - min_int" max_int (Checked.sub (-1) min_int);
  Alcotest.(check int) "min_int - 0" min_int (Checked.sub min_int 0);
  Alcotest.(check int) "min_int mod -1" 0 (Checked.rem min_int (-1));
  Alcotest.(check (option int)) "max_int literal" (Some max_int)
    (Checked.of_string_opt (string_of_int max_int));
  Alcotest.(check (option int)) "max_int + 1 literal" None
    (Checked.of_string_opt "4611686018427387904")

(* Each checked operation against {!Int_ref}: the exact result, or
   [Overflow] exactly when that result does not fit (and a zero divisor
   raises [Division_by_zero] in both). *)
let checked_props =
  let agrees name f r =
    prop name 2000
      (QCheck.make ~print:QCheck.Print.(pair int int)
         (QCheck.Gen.pair Int_ref.operand Int_ref.operand))
      (fun (a, b) ->
        let run f = try Ok (f a b) with Division_by_zero -> Error () in
        run (fun a b ->
            match f a b with n -> Some n | exception Checked.Overflow -> None)
        = run r)
  in
  [
    agrees "add" Checked.add Int_ref.add;
    agrees "sub" Checked.sub Int_ref.sub;
    agrees "mul" Checked.mul Int_ref.mul;
    agrees "div" Checked.div Int_ref.div;
    agrees "rem" Checked.rem Int_ref.rem;
    agrees "neg" (fun a _ -> Checked.neg a) (fun a _ -> Int_ref.neg a);
  ]

let test_union_find () =
  let uf = Union_find.create () in
  let a = Union_find.make uf
  and b = Union_find.make uf
  and c = Union_find.make uf in
  Alcotest.(check bool) "distinct" false (Union_find.equiv uf a b);
  ignore (Union_find.union uf a b);
  Alcotest.(check bool) "merged" true (Union_find.equiv uf a b);
  Alcotest.(check bool) "c apart" false (Union_find.equiv uf a c);
  ignore (Union_find.union uf b c);
  Alcotest.(check bool) "transitive" true (Union_find.equiv uf a c)

let uf_prop =
  prop "union-find partitions" 200
    QCheck.(list (pair (int_bound 15) (int_bound 15)))
    (fun pairs ->
      let uf = Union_find.create () in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* equiv is an equivalence relation consistent with the unions *)
      List.for_all (fun (a, b) -> Union_find.equiv uf a b) pairs
      && List.for_all
           (fun (a, _) -> Union_find.equiv uf a a)
           pairs)

let test_listx () =
  Alcotest.(check (option (pair int (list int))))
    "find_remove" (Some (3, [ 1; 2; 4 ]))
    (Listx.find_remove (fun x -> x > 2) [ 1; 2; 3; 4 ]);
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 5);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check int) "pairs" 6 (List.length (Listx.all_pairs [ 1; 2; 3; 4 ]))

let test_gensym () =
  let g = Gensym.create ~prefix:"t" () in
  let a = Gensym.fresh g and b = Gensym.fresh g in
  Alcotest.(check bool) "fresh distinct" true (a <> b)

let watchdog_counter wd k = List.assoc k (Watchdog.counters wd)

(* A passive watchdog ([monitor:false]) whose clock the test owns:
   [scan ~now] replaces the monitor domain, so every escalation step
   is deterministic. *)
let test_watchdog_escalation () =
  let wd = Watchdog.create ~monitor:false () in
  let t0 = Unix.gettimeofday () in
  let cancelled = ref false and abandoned = ref false in
  let w =
    Watchdog.watch wd ~grace:1.0 ~deadline_ms:1000.0
      ~cancel:(fun () -> cancelled := true)
      ~abandon:(fun () -> abandoned := true)
      ()
  in
  (* Before the deadline: nothing fires. *)
  Watchdog.scan ~now:(t0 +. 0.5) wd;
  Alcotest.(check bool) "quiet before deadline" false !cancelled;
  (* Past deadline × grace: the soft stage cancels, once. *)
  Watchdog.scan ~now:(t0 +. 1.5) wd;
  Alcotest.(check bool) "soft stage cancelled" true !cancelled;
  Alcotest.(check bool) "hard stage not yet" false !abandoned;
  Watchdog.scan ~now:(t0 +. 1.6) wd;
  Alcotest.(check int) "soft fires once" 1 (watchdog_counter wd "cancels");
  (* Past twice that: the hard stage writes the activity off. *)
  Watchdog.scan ~now:(t0 +. 2.5) wd;
  Alcotest.(check bool) "hard stage abandoned" true !abandoned;
  (match Watchdog.unwatch wd w with
  | `Was_abandoned -> ()
  | `Clean | `Was_cancelled -> Alcotest.fail "unwatch must report abandonment");
  Alcotest.(check int) "no active watches left" 0 (watchdog_counter wd "active");
  Alcotest.(check int) "abandons counted" 1 (watchdog_counter wd "abandons");
  Watchdog.stop wd

let test_watchdog_clean_completion () =
  let wd = Watchdog.create ~monitor:false () in
  let fired = ref false in
  let w =
    Watchdog.watch wd ~grace:1.0 ~deadline_ms:1000.0
      ~cancel:(fun () -> fired := true)
      ~abandon:(fun () -> fired := true)
      ()
  in
  (match Watchdog.unwatch wd w with
  | `Clean -> ()
  | _ -> Alcotest.fail "completing inside the deadline is clean");
  (* A scan after completion must not fire anything. *)
  Watchdog.scan ~now:(Unix.gettimeofday () +. 60.0) wd;
  Alcotest.(check bool) "disarmed watch never fires" false !fired;
  Watchdog.stop wd

let test_watchdog_long_stall_fires_both_in_order () =
  (* The first scan after a long stall finds both stages overdue: it
     must fire cancel then abandon, in that order. *)
  let wd = Watchdog.create ~monitor:false () in
  let order = ref [] in
  let t0 = Unix.gettimeofday () in
  ignore
    (Watchdog.watch wd ~grace:1.0 ~deadline_ms:10.0
       ~cancel:(fun () -> order := "cancel" :: !order)
       ~abandon:(fun () -> order := "abandon" :: !order)
       ());
  Watchdog.scan ~now:(t0 +. 60.0) wd;
  Alcotest.(check (list string))
    "cancel before abandon" [ "cancel"; "abandon" ] (List.rev !order);
  Watchdog.stop wd

let test_watchdog_callback_errors_swallowed () =
  let wd = Watchdog.create ~monitor:false () in
  let t0 = Unix.gettimeofday () in
  ignore
    (Watchdog.watch wd ~grace:1.0 ~deadline_ms:10.0
       ~cancel:(fun () -> failwith "cancel blew up")
       ~abandon:(fun () -> failwith "abandon blew up")
       ());
  (* The scan must survive both raising callbacks and count them. *)
  Watchdog.scan ~now:(t0 +. 60.0) wd;
  Alcotest.(check int) "errors counted" 2 (watchdog_counter wd "errors");
  Alcotest.(check int) "stages still advanced" 1 (watchdog_counter wd "abandons");
  Watchdog.stop wd

let () =
  Alcotest.run "stdx"
    [
      ( "Q-units",
        [
          Alcotest.test_case "units" `Quick test_q_units;
          Alcotest.test_case "overflow" `Quick test_q_overflow;
        ] );
      ("Q-props", q_props);
      ( "checked",
        Alcotest.test_case "units" `Quick test_checked_units :: checked_props
      );
      ( "union-find",
        [ Alcotest.test_case "basic" `Quick test_union_find; uf_prop ] );
      ("listx", [ Alcotest.test_case "helpers" `Quick test_listx ]);
      ("gensym", [ Alcotest.test_case "fresh" `Quick test_gensym ]);
      ( "watchdog",
        [
          Alcotest.test_case "two-stage escalation" `Quick
            test_watchdog_escalation;
          Alcotest.test_case "clean completion" `Quick
            test_watchdog_clean_completion;
          Alcotest.test_case "long stall fires both" `Quick
            test_watchdog_long_stall_fires_both_in_order;
          Alcotest.test_case "callback errors swallowed" `Quick
            test_watchdog_callback_errors_swallowed;
        ] );
    ]
