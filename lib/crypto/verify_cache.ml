(* Content-addressed verification memoization.

   A cache instance is strictly per-node: it wraps that node's view of the
   shared keystore and only ever memoizes work the node has already done
   (or, via [sign], work whose outcome the signer knows by construction).
   Nothing here is an oracle — with the cache disabled every call degrades
   to the exact uncached computation, and the differential tests pin that
   the two paths agree bit for bit.

   Soundness invariant: a cached verdict never outlives the keystore state
   that produced it. Every memoized verdict is stamped with
   [Signer.generation] at computation time; any keystore change (identity
   provisioning, hash-based key-pool rollover) bumps the generation and
   silently invalidates every older entry.

   Determinism: no wall-clock, no randomness. The verdict table evicts
   with a FIFO ring (insertion order), the digest table with a FIFO byte
   budget, so behaviour depends only on the call sequence. *)

(* ---------- global mode flag ---------- *)

(* Content-addressed signing changes which bytes get signed, so every
   signer and verifier in the process must agree on the mode: it is keyed
   off this one flag, never off whether a particular caller happens to
   hold a cache. Set once at startup (bench/CLI [--no-cache]); not meant
   to be toggled mid-simulation. *)
let enabled_flag = ref true

let set_enabled b = enabled_flag := b

let enabled () = !enabled_flag

(* ---------- counters ---------- *)

(* Process-global, plain [int] refs: exact under the deterministic
   single-domain runs that reports are generated from ([-j 1]); with the
   experiment pool fanning work across domains concurrent increments can
   drop, which only under-counts diagnostics and never affects results. *)

type counters = {
  verify_hits : int;
  verify_misses : int;
  digest_hits : int;
  digest_misses : int;
  memo_hits : int;
  memo_misses : int;
}

let c_verify_hits = ref 0
let c_verify_misses = ref 0
let c_digest_hits = ref 0
let c_digest_misses = ref 0
let c_memo_hits = ref 0
let c_memo_misses = ref 0

let counters () =
  {
    verify_hits = !c_verify_hits;
    verify_misses = !c_verify_misses;
    digest_hits = !c_digest_hits;
    digest_misses = !c_digest_misses;
    memo_hits = !c_memo_hits;
    memo_misses = !c_memo_misses;
  }

(* Caches created since the last [reset_counters] — one per node, so
   this is the divisor that turns the aggregate tallies above into
   honest per-node figures (the bench used to report the aggregate as
   if it were a single node's). *)
let c_instances = ref 0

let instances () = !c_instances

let reset_counters () =
  c_verify_hits := 0;
  c_verify_misses := 0;
  c_digest_hits := 0;
  c_digest_misses := 0;
  c_memo_hits := 0;
  c_memo_misses := 0;
  c_instances := 0

(* ---------- the cache ---------- *)

type entry = {
  mutable e_msg : string;
  mutable e_gen : int;
  mutable e_verdict : bool;
}

type t = {
  keystore : Signer.t;
  (* Keyed by (signer, signature): for honest traffic the signature alone
     pins the message, and the stored message is compared on every probe,
     so colliding keys (e.g. the all-zero forged signature under several
     bodies) just overwrite each other — never cross-talk. Hashing the
     message instead would cost as much as the verify being saved. *)
  verdicts : (string * string, entry) Hashtbl.t;
  ring : (string * string) option array; (* FIFO eviction; slots = table keys *)
  mutable cursor : int;
  (* Digest memo: cheap fingerprint -> bucket of (content, digest).
     Bounded by bytes (not entries) because the keys it pins alive can be
     megabytes each. *)
  digests : (int, (string * string) list) Hashtbl.t;
  dqueue : (int * string) Queue.t; (* insertion order, for eviction *)
  mutable dbytes : int;
  digest_budget : int;
  (* Per-instance (= per-node) counters, alongside the process-global
     refs: a multi-node world shares the globals, so only these can say
     what one node's hit rate actually was. *)
  mutable i_verify_hits : int;
  mutable i_verify_misses : int;
  mutable i_digest_hits : int;
  mutable i_digest_misses : int;
}

(* The digest memo's FIFO window only has to cover content still in
   flight (a few pipelined batches); a huge budget would just pin dead
   operations on the major heap for the GC to trace. *)
let create ?(capacity = 1024) ?(digest_budget = 8 * 1024 * 1024) keystore =
  incr c_instances;
  {
    keystore;
    verdicts = Hashtbl.create (2 * capacity);
    ring = Array.make (max 1 capacity) None;
    cursor = 0;
    digests = Hashtbl.create 256;
    dqueue = Queue.create ();
    dbytes = 0;
    digest_budget;
    i_verify_hits = 0;
    i_verify_misses = 0;
    i_digest_hits = 0;
    i_digest_misses = 0;
  }

let keystore t = t.keystore

let instance_counters t =
  {
    verify_hits = t.i_verify_hits;
    verify_misses = t.i_verify_misses;
    digest_hits = t.i_digest_hits;
    digest_misses = t.i_digest_misses;
    memo_hits = 0;
    memo_misses = 0;
  }

let insert t key entry =
  (match t.ring.(t.cursor) with
  | Some old -> Hashtbl.remove t.verdicts old
  | None -> ());
  t.ring.(t.cursor) <- Some key;
  Hashtbl.replace t.verdicts key entry;
  t.cursor <- (t.cursor + 1) mod Array.length t.ring

(* Raw pass-through, so modules outside lib/crypto can express "verify
   without a cache" without naming [Signer.verify] (which the R5-rawverify
   lint rule confines to this directory). *)
let verify_uncached keystore ~signer ~msg ~signature =
  Signer.verify keystore ~signer ~msg ~signature

let hit t =
  incr c_verify_hits;
  t.i_verify_hits <- t.i_verify_hits + 1

let miss t =
  incr c_verify_misses;
  t.i_verify_misses <- t.i_verify_misses + 1

(* Cache-partitioning primitives for batched verification: the protocol
   domain [probe]s every job before fan-out and [record]s the computed
   verdicts after the join, so worker domains never see the cache. The
   counter accounting matches [verify] exactly — a probe counts the
   hit/miss, a record counts nothing. *)

let probe t ~signer ~msg ~signature =
  if not !enabled_flag then None
  else begin
    let gen = Signer.generation t.keystore in
    match Hashtbl.find_opt t.verdicts (signer, signature) with
    | Some e when e.e_gen = gen && (e.e_msg == msg || String.equal e.e_msg msg)
      ->
        hit t;
        Some e.e_verdict
    | Some _ | None ->
        miss t;
        None
  end

let record t ~signer ~msg ~signature ~verdict =
  if !enabled_flag then begin
    let gen = Signer.generation t.keystore in
    let key = (signer, signature) in
    match Hashtbl.find_opt t.verdicts key with
    | Some e ->
        (* Stale generation, or a key collision with a different message:
           refresh in place (no ring movement). *)
        e.e_msg <- msg;
        e.e_gen <- gen;
        e.e_verdict <- verdict
    | None -> insert t key { e_msg = msg; e_gen = gen; e_verdict = verdict }
  end

let verify t ~signer ~msg ~signature =
  if not !enabled_flag then
    Signer.verify t.keystore ~signer ~msg ~signature
  else begin
    let gen = Signer.generation t.keystore in
    let key = (signer, signature) in
    match Hashtbl.find_opt t.verdicts key with
    | Some e when e.e_gen = gen && (e.e_msg == msg || String.equal e.e_msg msg)
      ->
        hit t;
        e.e_verdict
    | Some e ->
        (* Stale generation, or a key collision with a different message:
           recompute and refresh in place (no ring movement). *)
        miss t;
        let v = Signer.verify t.keystore ~signer ~msg ~signature in
        e.e_msg <- msg;
        e.e_gen <- gen;
        e.e_verdict <- v;
        v
    | None ->
        miss t;
        let v = Signer.verify t.keystore ~signer ~msg ~signature in
        insert t key { e_msg = msg; e_gen = gen; e_verdict = v };
        v
  end

let sign t ~signer msg =
  let signature = Signer.sign t.keystore ~signer msg in
  if !enabled_flag then begin
    (* Read the generation after signing: a hash-based pool rollover
       inside [sign] bumps it, and the verdict we seed is valid under the
       post-rollover root set. The seeded [true] is exact: HMAC verify
       recomputes the same tag, and a Merkle signature verifies against
       the root that [sign] just used. *)
    let gen = Signer.generation t.keystore in
    let key = (signer, signature) in
    match Hashtbl.find_opt t.verdicts key with
    | Some e ->
        e.e_msg <- msg;
        e.e_gen <- gen;
        e.e_verdict <- true
    | None -> insert t key { e_msg = msg; e_gen = gen; e_verdict = true }
  end;
  signature

(* ---------- content-addressed digest memo ---------- *)

let fingerprint s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let head = Int32.to_int (Crc32.bytes b ~off:0 ~len:(min len 64)) land 0xffffffff in
  let tail_off = if len > 64 then len - 64 else 0 in
  let tail =
    if tail_off = 0 then head
    else Int32.to_int (Crc32.bytes b ~off:tail_off ~len:(len - tail_off)) land 0xffffffff
  in
  (head * 0x9e3779b1) lxor (tail * 0x85ebca77) lxor len

let rec evict_digests t =
  if t.dbytes > t.digest_budget && not (Queue.is_empty t.dqueue) then begin
    let fp, key = Queue.pop t.dqueue in
    (match Hashtbl.find_opt t.digests fp with
    | None -> ()
    | Some bucket -> (
        match List.filter (fun (k, _) -> not (k == key)) bucket with
        | [] -> Hashtbl.remove t.digests fp
        | rest -> Hashtbl.replace t.digests fp rest));
    t.dbytes <- t.dbytes - String.length key;
    evict_digests t
  end

(* Memoizing a digest only pays above a minimum size: below it, hashing
   the bytes again costs about as much as the probe, and unique small
   strings (transmission statements, tiny operations) would fill the
   table with never-hit entries the GC must keep tracing until the byte
   budget finally evicts them. *)
let digest_memo_min = 256

let digest t s =
  if (not !enabled_flag) || String.length s < digest_memo_min then
    Sha256.digest s
  else begin
    let fp = fingerprint s in
    let bucket =
      match Hashtbl.find_opt t.digests fp with Some b -> b | None -> []
    in
    match List.find_opt (fun (k, _) -> k == s || String.equal k s) bucket with
    | Some (_, d) ->
        incr c_digest_hits;
        t.i_digest_hits <- t.i_digest_hits + 1;
        d
    | None ->
        incr c_digest_misses;
        t.i_digest_misses <- t.i_digest_misses + 1;
        let d = Sha256.digest s in
        Hashtbl.replace t.digests fp ((s, d) :: bucket);
        Queue.push (fp, s) t.dqueue;
        t.dbytes <- t.dbytes + String.length s;
        evict_digests t;
        d
  end

(* ---------- generic physical-identity memo ---------- *)

type 'a memo = { mutable entries : ('a * string) list; mcap : int }

let memo ?(capacity = 8) () = { entries = []; mcap = max 1 capacity }

let memoize m key f =
  if not !enabled_flag then f ()
  else
    match List.assq_opt key m.entries with
    | Some v ->
        incr c_memo_hits;
        v
    | None ->
        incr c_memo_misses;
        let v = f () in
        let kept =
          if List.length m.entries >= m.mcap then
            List.filteri (fun i _ -> i < m.mcap - 1) m.entries
          else m.entries
        in
        m.entries <- (key, v) :: kept;
        v
