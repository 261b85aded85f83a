type scheme = [ `Hmac | `Hash_based ]

type hash_identity = {
  mutable current : Merkle_sig.signer;
  mutable roots : string list; (* all published roots, newest first *)
}

type identity =
  | Hmac_secret of Hmac.key
  | Hash_keys of hash_identity

type t = {
  scheme : scheme;
  rng : Bp_util.Rng.t;
  identities : (string, identity) Hashtbl.t;
  mutable generation : int;
}

let create ?(scheme = `Hmac) rng =
  { scheme; rng; identities = Hashtbl.create 64; generation = 0 }

let scheme t = t.scheme

let generation t = t.generation

(* 64 one-time keys per pool; pools are rolled over transparently when
   exhausted, modelling key rotation. *)
let pool_height = 6

let add_identity t id =
  if not (Hashtbl.mem t.identities id) then begin
    let entry =
      match t.scheme with
      | `Hmac -> Hmac_secret (Hmac.key (Bytes.to_string (Bp_util.Rng.bytes t.rng 32)))
      | `Hash_based ->
          let signer, root = Merkle_sig.keygen ~height:pool_height t.rng in
          Hash_keys { current = signer; roots = [ root ] }
    in
    Hashtbl.add t.identities id entry;
    t.generation <- t.generation + 1
  end

let sign t ~signer msg =
  match Hashtbl.find t.identities signer with
  | Hmac_secret key -> Hmac.mac key msg
  | Hash_keys keys ->
      if Merkle_sig.capacity keys.current = 0 then begin
        let fresh, root = Merkle_sig.keygen ~height:pool_height t.rng in
        keys.current <- fresh;
        keys.roots <- root :: keys.roots;
        t.generation <- t.generation + 1
      end;
      Merkle_sig.encode (Merkle_sig.sign keys.current msg)

(* An immutable view of one identity's verification state. [Hash_keys]
   entries are mutable (root lists grow on pool rollover), so the
   snapshot copies the root list out; the strings themselves are never
   mutated. This is what makes it safe to verify on another domain
   while the owning domain keeps signing. *)
type key = Hmac_key of Hmac.key | Hash_roots of string list

let snapshot t ~signer =
  match Hashtbl.find_opt t.identities signer with
  | None -> None
  | Some (Hmac_secret key) -> Some (Hmac_key key)
  | Some (Hash_keys keys) -> Some (Hash_roots keys.roots)

let verify_key key ~msg ~signature =
  match key with
  | Hmac_key key -> Hmac.verify key ~msg ~tag:signature
  | Hash_roots roots -> (
      match Merkle_sig.decode signature with
      | None -> false
      | Some s -> List.exists (fun root -> Merkle_sig.verify root msg s) roots)
(* Audited for pool workers (bplint R7-parpure): operates on an immutable
   [key] snapshot and never touches the keystore hashtable, the verify
   cache, or any other protocol-domain state. *)
[@@bplint.parallel_pure]

let verify t ~signer ~msg ~signature =
  match snapshot t ~signer with
  | None -> false
  | Some key -> verify_key key ~msg ~signature

let signature_overhead t =
  match t.scheme with
  | `Hmac -> 32
  | `Hash_based ->
      (* index + path-count + path entries + leaf pk + Lamport signature *)
      4 + (pool_height * 33) + 32 + (2 * 256 * 32)
