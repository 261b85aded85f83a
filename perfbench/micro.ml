(* Per-call cost of layer public functions at workload input sizes
   (1 KB payloads), timed in a domain-free phase: no verification or
   pool worker domain is alive (the benchmark refuses to start
   otherwise), so no idle domain taxes the minor GC.

   Each row runs a warm-up call, then [reps] timed batches of [n]
   calls; it reports the median nanoseconds per call and the quartile
   spread of the batches as a share of that median. *)

open Bp_sim

let reps = 15

(* Batch size: enough calls that one batch takes a few milliseconds. *)
let time_row ~n f =
  f ();
  let samples =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to n do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n)
  in
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let q k = a.(k * (reps - 1) / 4) in
  let med = q 2 in
  (med, if med > 0.0 then (q 3 -. q 1) /. med else 0.0)

let sink = ref 0
let keep s = sink := !sink + String.length s

let rows () =
  let kb = Drive.payload ~size:1000 0 in
  let rng = Bp_util.Rng.create 99L in
  let keystore = Bp_crypto.Signer.create rng in
  Bp_crypto.Signer.add_identity keystore "n0";
  (* Distinct messages cycling through a 4-entry cache: every probe misses. *)
  let cache = Bp_crypto.Verify_cache.create ~capacity:4 keystore in
  let signed =
    Array.init 64 (fun i ->
        let msg = Drive.payload ~size:1000 i in
        (msg, Bp_crypto.Signer.sign keystore ~signer:"n0" msg))
  in
  let vi = ref 0 in
  let record =
    Blockplane.Record.Comm { Blockplane.Record.dest = 1; comm_seq = 7; payload = kb }
  in
  let encoded = Blockplane.Record.encode record in
  let sealed = Bp_codec.Frame.seal encoded in
  let key = String.make 32 'k' in
  let log = ref (Bp_storage.Log_store.create ()) in
  let appended = ref 0 in
  let engine = Engine.create () in
  let rows =
    [
      ("crypto.sha256_1k_ns", 2000, fun () -> keep (Bp_crypto.Sha256.digest kb));
      ("crypto.hmac_1k_ns", 2000, fun () -> keep (Bp_crypto.Hmac.sha256 ~key kb));
      ( "crypto.verify_miss_ns",
        2000,
        fun () ->
          let msg, signature = signed.(!vi land 63) in
          incr vi;
          if Bp_crypto.Verify_cache.verify cache ~signer:"n0" ~msg ~signature then incr sink );
      ("codec.record_encode_ns", 5000, fun () -> keep (Blockplane.Record.encode record));
      ( "codec.record_decode_ns",
        5000,
        fun () ->
          match Blockplane.Record.decode encoded with Ok _ -> incr sink | Error _ -> () );
      ("codec.frame_seal_ns", 5000, fun () -> keep (Bp_codec.Frame.seal encoded));
      ( "codec.frame_unseal_ns",
        5000,
        fun () -> match Bp_codec.Frame.unseal sealed with Ok s -> keep s | Error _ -> () );
      ( "storage.log_append_ns",
        2000,
        fun () ->
          (* a fresh log every 10k appends, so the row does not grow the heap *)
          incr appended;
          if !appended mod 10_000 = 0 then log := Bp_storage.Log_store.create ();
          ignore (Bp_storage.Log_store.append !log kb) );
      ( "sim.schedule_fire_ns",
        5000,
        fun () ->
          ignore (Engine.schedule engine ~after:(Time.of_us 1) ignore);
          ignore (Engine.step engine) );
    ]
  in
  List.concat_map
    (fun (name, n, f) ->
      let med, spr = time_row ~n f in
      let base = String.sub name 0 (String.length name - 3) in
      [ (name, med, "ns"); (base ^ "_spread", spr, "frac") ])
    rows
