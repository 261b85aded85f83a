let block_size = 64

(* A key is the two padded-key blocks already compressed: [mac] copies
   each midstate and absorbs only the message and the inner digest, so
   a short message costs two compressions instead of four. Neither
   context is ever updated in place, which is what lets a [key] cross
   domains. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let key secret =
  let secret =
    if String.length secret > block_size then Sha256.digest secret else secret
  in
  let midstate byte =
    let pad = Bytes.make block_size (Char.chr byte) in
    String.iteri
      (fun i c -> Bytes.set pad i (Char.chr (Char.code c lxor byte)))
      secret;
    let ctx = Sha256.init () in
    Sha256.update_bytes ctx pad ~off:0 ~len:block_size;
    ctx
  in
  { inner = midstate 0x36; outer = midstate 0x5c }

let mac k msg =
  let inner = Sha256.copy k.inner in
  Sha256.update inner msg;
  let outer = Sha256.copy k.outer in
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer

let sha256 ~key:secret msg = mac (key secret) msg

let constant_time_equal a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
       !acc = 0
     end

let verify k ~msg ~tag = constant_time_equal (mac k msg) tag
