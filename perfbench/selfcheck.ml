(* The benchmark's own checks, run at the start of every run and counted
   as operations: the wire framing of history replies, the percentile
   rules, the VmHWM parse, and the failure accounting itself. *)

let reply body = Proto.encode_reply { Proto.r_sid = "s"; r_seq = 1; r_body = body }

let write i =
  Proto.Write { insn = i; pc = 4 * i; addr = 64; old_v = i - 1; new_v = i; wtype = "bss" }

(* [history 2] + two [write]s form one response, then [closed] another.
   A client that waits for [Proto.terminal] alone would never complete
   the first: neither [history] nor [write] is terminal. *)
let framing l =
  Util.check l
    ((not (Proto.terminal (Proto.History { count = 2 }))) && not (Proto.terminal (write 1)))
    "self-check: history/write frames are not terminal";
  let f = Fleet.framer () in
  let lines = [ reply (Proto.History { count = 2 }); reply (write 1); reply (write 2); reply Proto.Closed ] in
  let responses = List.filter_map (Fleet.feed f) lines in
  Util.check l
    (match responses with
    | [ (h, []); ([ { Proto.r_body = Proto.Closed; _ } ], []) ] -> List.length h = 3
    | _ -> false)
    "self-check: history + writes not framed as one response";
  let empty = List.filter_map (Fleet.feed f) [ reply (Proto.History { count = 0 }) ] in
  Util.check l (List.length empty = 1) "self-check: empty history not a complete response";
  let bad = List.filter_map (Fleet.feed f) [ "s 1 no-such-verb" ] in
  Util.check l (match bad with [ ([], [ _ ]) ] -> true | _ -> false)
    "self-check: undecodable frame not reported"

let percentiles l =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Util.check l (Util.percentile xs 50.0 = 50.0 && Util.percentile xs 99.0 = 99.0
                && Util.percentile [ 3.0; 1.0; 2.0 ] 50.0 = 2.0)
    "self-check: nearest-rank percentile";
  Util.check l (Util.tail ~pct:90.0 xs = Some (90.0, 100)) "self-check: p90 of 100 samples";
  Util.check l
    (Util.tail ~pct:99.0 (List.init 1000 (fun i -> float_of_int (i + 1))) = Some (990.0, 1000))
    "self-check: p99 of 1000 samples";
  Util.check l (Util.tail ~pct:90.0 (List.init 99 float_of_int) = None)
    "self-check: p90 of 99 samples leaves fewer than ten beyond"

let vmhwm l =
  let status = "Name:\tmain.exe\nVmPeak:\t  20000 kB\nVmHWM:\t   11636 kB\nVmRSS:\t 9000 kB\n" in
  Util.check l (Util.parse_vmhwm_kb status = Some 11636) "self-check: VmHWM parse";
  Util.check l (Util.parse_vmhwm_kb "VmRSS:\t 9000 kB\n" = None) "self-check: missing VmHWM";
  Util.check l (Util.peak_rss_mb None > 0.0) "self-check: own VmHWM"

(* A deliberately wrong expected value must be counted as one failed
   operation out of one attempted. *)
let accounting l =
  let scratch = Util.ledger () in
  ignore
    (Util.op scratch "planted" (fun () ->
         Util.expect scratch ~what:"planted" ~show:string_of_int 41 42;
         Util.expect scratch ~what:"planted" ~show:string_of_int 42 42));
  ignore (Util.op scratch "raises" (fun () -> failwith "planted"));
  Util.check l (scratch.attempted = 2 && scratch.failed = 2)
    (Printf.sprintf "self-check: planted failures counted %d/%d, want 2/2" scratch.failed
       scratch.attempted)

let run l =
  framing l;
  percentiles l;
  vmhwm l;
  accounting l
