(* In-memory span recorder for the traced run.

   A span is one request's passage across a boundary the benchmark can
   observe from outside the program: the submit call, a record executing
   at a unit's lead node, a completion callback, or a slice of engine
   steps. Spans carry both clocks: virtual nanoseconds (the simulation's
   time) and wall seconds (the host's). They stay in memory until [write]
   dumps them as JSON lines at the end of the run.

   When tracing is off nothing is recorded and no hook is installed, so
   the untraced run pays nothing for this module. *)

type span = {
  name : string;
  req : int;  (** request id stamped into the payload; -1 = none *)
  parent : string;  (** the span that caused this one ("" = root) *)
  v0 : int;  (** virtual start, ns *)
  v1 : int;  (** virtual end, ns *)
  w0 : float;  (** wall start, s *)
  w1 : float;  (** wall end, s *)
}

let on = ref false
let buf : span list ref = ref []

(* Request ids restart in every episode; spans offset them by the
   episode so they stay unique within a run. *)
let episode = ref 0
let episode_stride = 10_000_000
let count = ref 0

let enable b =
  on := b;
  buf := [];
  count := 0;
  episode := 0

(* Stop recording, keeping what was recorded. *)
let stop () = on := false

let add ~name ~req ~parent ~v0 ~v1 ~w0 ~w1 =
  if !on then begin
    let req = if req >= 0 then req + (!episode * episode_stride) else req in
    buf := { name; req; parent; v0; v1; w0; w1 } :: !buf;
    incr count
  end

(* A span whose end is a virtual instant observed by a hook; the wall
   side is the instant the hook ran. *)
let mark ~name ~req ~parent ~v0 ~v1 =
  if !on then
    let w = Unix.gettimeofday () in
    add ~name ~req ~parent ~v0 ~v1 ~w0:w ~w1:w

let spans () = List.rev !buf

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"req\":%d,\"parent\":%S,\"v0_ns\":%d,\"v1_ns\":%d,\"w0_s\":%.6f,\"w1_s\":%.6f}\n"
        s.name s.req s.parent s.v0 s.v1 s.w0 s.w1)
    (spans ());
  close_out oc
