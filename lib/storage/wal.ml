(* The records are the only copy kept, so a long log holds each payload
   once; the framed image is rebuilt on demand by [contents], which only
   crash-recovery paths call. *)
type t = { mutable recs : string list; (* newest first *) mutable size : int }

let create () = { recs = []; size = 0 }

let append t payload =
  t.recs <- payload :: t.recs;
  t.size <- t.size + Bp_codec.Frame.overhead + String.length payload

let size t = t.size
let records t = List.rev t.recs

let contents t =
  let buf = Buffer.create t.size in
  List.iter (fun p -> Buffer.add_string buf (Bp_codec.Frame.seal p)) (records t);
  Buffer.contents buf

let of_contents image =
  let t = create () in
  let len = String.length image in
  let rec scan off =
    if off >= len then 0
    else
      match Bp_codec.Frame.unseal_prefix image ~off with
      | Ok (payload, consumed) ->
          append t payload;
          scan (off + consumed)
      | Error (`Corrupt | `Malformed) -> len - off
  in
  let discarded = scan 0 in
  (t, discarded)

let truncate_tail t n =
  let image = contents t in
  let keep = Stdlib.max 0 (String.length image - n) in
  fst (of_contents (String.sub image 0 keep))

let corrupt_byte t off =
  let image = Bytes.of_string (contents t) in
  if off < 0 || off >= Bytes.length image then invalid_arg "Wal.corrupt_byte";
  Bytes.set image off (Char.chr (Char.code (Bytes.get image off) lxor 0x40));
  fst (of_contents (Bytes.to_string image))
