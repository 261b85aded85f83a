(* Load drivers with a virtual-time deadline.

   Every request has a slot in a table: the virtual instant it was due
   and the instant it completed, or a marker for "failed" (rejected,
   aborted) or "pending". A request still pending at the deadline has
   failed too. The engine is driven one [Engine.step] at a time, so the
   benchmark counts events itself and can stop at the deadline even when
   the protocol has stalled (periodic timers keep the queue non-empty). *)

open Bp_sim

let pending = -1
let failed = -2
let late = -3

type reqs = {
  due : int array;  (** virtual ns at which request i was due *)
  fin : int array;  (** completion ns, or [pending] / [failed] / [late] *)
  mutable issued : int;  (** requests handed to the program so far *)
  mutable resolved : int;
  mutable dups : int;  (** completions reported twice: a correctness fault *)
}

let reqs n =
  { due = Array.make n 0; fin = Array.make n pending; issued = 0; resolved = 0; dups = 0 }

let now_ns engine = Time.to_ns (Engine.now engine)

(* A completion after the deadline leaves the request failed; a second
   completion, or one after a rejection, is a fault. *)
let complete r engine i =
  let f = r.fin.(i) in
  if f = pending then begin
    r.fin.(i) <- now_ns engine;
    r.resolved <- r.resolved + 1
  end
  else if f <> late then r.dups <- r.dups + 1

let fail r i =
  if r.fin.(i) = pending then begin
    r.fin.(i) <- failed;
    r.resolved <- r.resolved + 1
  end

(* Close the table at the deadline: whatever is still pending failed. *)
let close r =
  for i = 0 to r.issued - 1 do
    if r.fin.(i) = pending then r.fin.(i) <- late
  done

let outstanding r () = r.issued - r.resolved

let completed r =
  let c = ref 0 in
  for i = 0 to r.issued - 1 do
    if r.fin.(i) >= 0 then incr c
  done;
  !c

(* ---------- host speed ---------- *)

(* A shared host's speed drifts by 15-40% between runs, mostly from
   neighbours contending for caches and memory bandwidth. To keep
   wall-clock figures comparable, every rate slice of the measured phase
   is followed by a short burst of fixed work that uses only the OCaml
   standard library (so no change to the program under test can speed it
   up), and the slice's wall time is scaled by how fast that burst ran
   against [calib_ref_per_s], its typical rate on the 2-core x86-64
   container the benchmark was defined on. *)
let calib_ref_per_s = 8_000_000.0

(* 32 MiB outside the OCaml heap, walked at random: the burst is bound
   by cache misses and memory bandwidth, like the simulator's GC. *)
let calib_mem =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 22) in
  Bigarray.Array1.fill a 1;
  a

let calib_pos = ref 1

(* Units of calibration work per wall-second over a ~2 ms burst, and the
   minor-heap words the burst allocated. *)
let calibrate () =
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let n = ref 0 and t = ref t0 and acc = ref 0 in
  let mask = (1 lsl 22) - 1 in
  while !t -. t0 < 0.002 do
    for _ = 1 to 64 do
      calib_pos := ((!calib_pos * 1103515245) + 12345) land mask;
      acc := !acc + Bigarray.Array1.unsafe_get calib_mem !calib_pos;
      ignore (Sys.opaque_identity (Array.make 4 !acc))
    done;
    n := !n + 64;
    t := Unix.gettimeofday ()
  done;
  (float_of_int !n /. (!t -. t0), Gc.minor_words () -. words0)

(* ---------- stepping ---------- *)

type stepper = {
  mutable events : int;
  mutable peak_pending : int;
  mutable slice_v : int;  (** traced run: start of the current span slice *)
  mutable slice_w : float;
  mutable rate_events : int;  (** events in the current rate slice *)
  mutable rate_w : float;  (** wall start of the current rate slice *)
  mutable slices : (int * float * float) list;
      (** per slice: events, wall seconds, host speed factor *)
  mutable calib_words : float;  (** minor words the calibration allocated *)
  mutable calib_s : float;  (** wall seconds spent calibrating *)
}

let stepper () =
  {
    events = 0;
    peak_pending = 0;
    slice_v = 0;
    slice_w = 0.0;
    rate_events = 0;
    rate_w = 0.0;
    slices = [];
    calib_words = 0.0;
    calib_s = 0.0;
  }

(* Wall length of one rate slice: host speed is sampled after each. *)
let rate_slice_s = 0.1

(* Events per "engine.slice" span in the traced run. *)
let slice_events = 4096

(* Step [e] until [stop ()] holds, the queue empties, or virtual time
   reaches [deadline] (ns). Events and peak queue length accumulate in
   [st] across engines. *)
let run st e ~deadline ~stop =
  st.slice_v <- now_ns e;
  st.slice_w <- Unix.gettimeofday ();
  st.rate_events <- 0;
  st.rate_w <- st.slice_w;
  while (not (stop ())) && now_ns e < deadline && Engine.step e do
    st.events <- st.events + 1;
    st.rate_events <- st.rate_events + 1;
    if st.rate_events land 255 = 0 then begin
      let w = Unix.gettimeofday () in
      if w -. st.rate_w >= rate_slice_s then begin
        let speed, words = calibrate () in
        let w' = Unix.gettimeofday () in
        st.slices <- (st.rate_events, w -. st.rate_w, speed /. calib_ref_per_s) :: st.slices;
        st.calib_words <- st.calib_words +. words;
        st.calib_s <- st.calib_s +. (w' -. w);
        st.rate_events <- 0;
        st.rate_w <- w'
      end
    end;
    let p = Engine.pending e in
    if p > st.peak_pending then st.peak_pending <- p;
    if !Trace.on && st.events mod slice_events = 0 then begin
      let v = now_ns e and w = Unix.gettimeofday () in
      Trace.add ~name:"engine.slice" ~req:(-1) ~parent:"" ~v0:st.slice_v ~v1:v
        ~w0:st.slice_w ~w1:w;
      st.slice_v <- v;
      st.slice_w <- w
    end
  done

(* ---------- periodic sampling ---------- *)

(* A benchmark-scheduled periodic event that reads a gauge. It only
   reads program state, so it changes no virtual-time result; it runs in
   the traced and untraced run alike. *)
type sampler = { samples : (int * int) list ref; timer : Engine.timer }

let sampler engine ~every_ms read =
  let samples = ref [] in
  let timer =
    Engine.periodic engine ~every:(Time.of_ms every_ms) (fun () ->
        samples := (now_ns engine, read ()) :: !samples)
  in
  { samples; timer }

let stop_sampler s = Engine.cancel s.timer

(* Mean of the samples taken in [t0, t1). *)
let sample_mean s ~t0 ~t1 =
  let sum, n =
    List.fold_left
      (fun (sum, n) (t, v) -> if t >= t0 && t < t1 then (sum + v, n + 1) else (sum, n))
      (0, 0) !(s.samples)
  in
  if n = 0 then 0.0 else float_of_int sum /. float_of_int n

(* ---------- load shapes ---------- *)

(* Open loop: Poisson arrivals from [gen] (rate and clients fixed by its
   spec), each submitted the instant it is due. Streaming: one pending
   arrival event at a time. *)
let open_loop engine r ~gen ~start ~submit =
  let count = Array.length r.due in
  let rec arrive i at =
    ignore
      (Engine.schedule_at engine at (fun () ->
           if i + 1 < count then
             arrive (i + 1) (Time.add at (Time.of_ms (Bp_harness.Loadgen.next_gap_ms gen)));
           let client = Bp_harness.Loadgen.next_client gen in
           r.due.(i) <- Time.to_ns at;
           r.issued <- i + 1;
           submit i ~client))
  in
  arrive 0 (Time.add start (Time.of_ms (Bp_harness.Loadgen.next_gap_ms gen)))

(* Closed loop with one outstanding request: [submit i] must call
   [complete]/[fail] on the table; the next request goes out as soon as
   the previous one resolves, until virtual time passes [until] (ns) or
   the table is full. *)
let closed_loop engine r ~until ~submit =
  let count = Array.length r.due in
  let rec go i =
    if i < count && now_ns engine < until then begin
      r.due.(i) <- now_ns engine;
      r.issued <- i + 1;
      submit i ~next:(fun () -> go (i + 1))
    end
  in
  go 0

(* ---------- payloads ---------- *)

(* A [size]-byte payload carrying request id [id] after [tag] (and
   [extra] after it), padded with filler. *)
let payload ?(tag = "bp#") ~size ?(extra = "") id =
  let stamp = Printf.sprintf "%s%d;%s" tag id extra in
  let b = Bytes.make size 'x' in
  Bytes.blit_string stamp 0 b 0 (min (String.length stamp) size);
  Bytes.unsafe_to_string b

(* The request id stamped after [tag] anywhere in [s], if any. *)
let id_of ?(tag = "bp#") s =
  let n = String.length s and k = String.length tag in
  let rec tagged i j = j = k || (s.[i + j] = tag.[j] && tagged i (j + 1)) in
  let rec find i =
    if i + k >= n then None else if tagged i 0 then digits (i + k) 0 (i + k) else find (i + 1)
  and digits j acc start =
    if j < n && s.[j] >= '0' && s.[j] <= '9' then
      digits (j + 1) ((acc * 10) + Char.code s.[j] - 48) start
    else if j > start && j < n && s.[j] = ';' then Some acc
    else find start
  in
  find 0
