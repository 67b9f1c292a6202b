(* Shared plumbing: the clock, order statistics, process memory, the
   seeded generator and the failure ledger every workload reports
   into. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.0

(* Samples a tail must leave above it. *)
let tail_beyond = 10

(* The tail: the nearest-rank [pct] percentile, when at least
   [tail_beyond] samples rank above it.  Returns (value, samples).  Each
   workload fixes its percentile, inside a band of like samples and with
   room to spare in its sample count: a percentile chosen from the count
   itself moves between classes of a mixed population as the count
   varies from run to run. *)
let tail ~pct xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (ceil (pct /. 100.0 *. float_of_int n)) in
  if n > 0 && n - rank >= tail_beyond then Some (a.(max 0 (rank - 1)), n) else None

(* --- host-speed calibration ------------------------------------------ *)

(* The host's speed drifts by a third over minutes (other tenants of the
   machine), and every in-process time drifts with it.  Fixed kernels
   that use none of the code under test are timed before every block of
   measured work, and the run's times are rescaled to reference-host
   seconds, in which the kernels take exactly [cal_ref_s].  The kernels'
   median over the whole run sets the scale: single samples jitter by
   half at this grain.  A change to the system moves the measured work
   and not the kernels, so it still shows.  The kernels allocate nothing
   while timed: their time must not depend on the heap the measured work
   leaves behind. *)

(* A tiny register-machine interpreter: branches and small-array loads
   and stores, as in the simulator's dispatch loop. *)
type cal_insn =
  | Add of int * int * int
  | Load of int * int
  | Store of int * int
  | Dec of int
  | Bnz of int * int

let cal_program =
  [| Load (1, 0); Add (2, 1, 3); Store (2, 4); Add (3, 3, 2); Load (4, 3); Dec 5; Bnz (5, 0) |]

let cal_kernel steps =
  let r = Array.make 8 1 and mem = Array.make 4096 3 in
  r.(5) <- steps;
  let pc = ref 0 in
  while !pc < Array.length cal_program do
    match cal_program.(!pc) with
    | Add (d, a, b) -> r.(d) <- (r.(a) + r.(b)) land 0xffff; incr pc
    | Load (d, a) -> r.(d) <- mem.(r.(a) land 4095); incr pc
    | Store (v, a) -> mem.(r.(a) land 4095) <- r.(v); incr pc
    | Dec d ->
      r.(d) <- r.(d) - 1;
      mem.(r.(d) land 4095) <- mem.(r.(d) land 4095) + !pc;
      incr pc
    | Bnz (v, t) -> if r.(v) <> 0 then pc := t else incr pc
  done;
  r.(2) + mem.(7)

(* A walk around one random cycle through 1 MB: dependent loads that miss
   the first-level cache, as the simulator's memory and heap accesses
   do.  The two kernels together follow the simulator's slowdowns better
   than either alone (measured: 1.5 % variation of the ratio across
   15-second windows, against 3.9 % for the interpreter alone).  Bytes,
   so the garbage collector never scans it. *)
let walk =
  lazy
    (let n = 1 lsl 18 in
     let b = Bytes.create (4 * n) in
     for i = 0 to n - 1 do
       Bytes.set_int32_le b (4 * i) (Int32.of_int i)
     done;
     (* Sattolo's shuffle: one cycle through every slot. *)
     let st = Random.State.make [| 0xca1 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int st i in
       let t = Bytes.get_int32_le b (4 * i) in
       Bytes.set_int32_le b (4 * i) (Bytes.get_int32_le b (4 * j));
       Bytes.set_int32_le b (4 * j) t
     done;
     b)

let walk_kernel steps =
  let b = Lazy.force walk in
  let i = ref 0 in
  for _ = 1 to steps do
    i := Int32.to_int (Bytes.get_int32_le b (4 * !i))
  done;
  !i

(* Steps of each kernel per calibration, and their time on the reference
   host (an unloaded 2.0 GHz Xeon vCPU). *)
let cal_steps = 350_000
let walk_steps = 140_000
let cal_ref_s = 0.0095

let cal_samples = ref []

(* Time the kernels once, adding a sample to the run's scale. *)
let calibrate () =
  ignore (Lazy.force walk);
  let t0 = now () in
  ignore (Sys.opaque_identity (cal_kernel cal_steps));
  ignore (Sys.opaque_identity (walk_kernel walk_steps));
  cal_samples := (now () -. t0) :: !cal_samples

(* Reference seconds per host second over the run so far. *)
let host_factor () = cal_ref_s /. median !cal_samples

let geomean = function
  | [] -> invalid_arg "geomean: no values"
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))

let mean = function
  | [] -> invalid_arg "mean: no values"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* --- process memory --------------------------------------------------- *)

(* [VmHWM] (peak resident set) from a /proc/<pid>/status body, in kB. *)
let parse_vmhwm_kb status =
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = "VmHWM" -> (
           let rest = String.sub line (i + 1) (String.length line - i - 1) in
           match String.split_on_char ' ' (String.trim rest) with
           | [ n; "kB" ] -> int_of_string_opt n
           | _ -> None)
         | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match parse_vmhwm_kb (read_file path) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM line in " ^ path)

(* --- seeded inputs ------------------------------------------------------ *)

let rng seed = Random.State.make [| 0x5eed; seed |]

let shuffle st xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* --- result ledger ------------------------------------------------------ *)

(* Operations attempted and failed.  An operation (a run, a query, a
   wire command) fails when any check made inside it fails or it
   raises; a check made outside any operation counts as one. *)
type ledger = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* first twenty failure reasons, newest first *)
  mutable in_op : bool;
  mutable op_failed : bool;
}

let ledger () = { attempted = 0; failed = 0; notes = []; in_op = false; op_failed = false }

let note l what = if List.length l.notes < 20 then l.notes <- what :: l.notes

let check l ok what =
  if not ok then note l what;
  if l.in_op then (if not ok then l.op_failed <- true)
  else begin
    l.attempted <- l.attempted + 1;
    if not ok then l.failed <- l.failed + 1
  end

(* Run [f] as one operation; [None] when it raised. *)
let op l what f =
  if l.in_op then Some (f ())
  else begin
    l.in_op <- true;
    l.op_failed <- false;
    let r =
      try Some (f ())
      with e ->
        note l (Printf.sprintf "%s: raised %s" what (Printexc.to_string e));
        l.op_failed <- true;
        None
    in
    l.in_op <- false;
    l.attempted <- l.attempted + 1;
    if l.op_failed then l.failed <- l.failed + 1;
    r
  end

(* A check that [actual] equals [expected]. *)
let expect l ~what ~show expected actual =
  check l (expected = actual)
    (Printf.sprintf "%s: expected %s, got %s" what (show expected) (show actual))

(* Metrics reported by name, value and unit, in the order added. *)
type metrics = (string * float * string) list ref

let metric (m : metrics) name value unit = m := !m @ [ (name, value, unit) ]

let minor_words () = Gc.minor_words ()

(* [p50_ms]: geometric mean of each class's median (a class is a verb,
   or a program and opt level); [tail_ms]: the [tail_pct] percentile
   over every sample.  [samples] are (class, ms); [op] names one sample
   in the report. *)
let latency (m : metrics) ~op ~tail_pct samples =
  let classes = List.sort_uniq compare (List.map fst samples) in
  let p50s =
    List.map
      (fun c ->
        let xs = List.filter_map (fun (k, v) -> if k = c then Some v else None) samples in
        Printf.printf "  %-28s %10.3f ms  (%d samples)\n" (c ^ "_p50_ms") (median xs)
          (List.length xs);
        median xs)
      classes
  in
  let all = List.map snd samples in
  match tail ~pct:tail_pct all with
  | None ->
    failwith
      (Printf.sprintf "%s: p%g of %d samples leaves fewer than %d beyond; raise --seconds" op
         tail_pct (List.length all) tail_beyond)
  | Some (v, n) ->
    Printf.printf "  %-28s %10.3f ms  (%d samples)\n" (op ^ "_p50_ms") (median all) n;
    Printf.printf "  %-28s %10.3f ms  (p%g of %d samples)\n" (op ^ "_tail_ms") v tail_pct n;
    metric m "p50_ms" (geomean p50s) "ms";
    metric m "tail_ms" v "ms"
