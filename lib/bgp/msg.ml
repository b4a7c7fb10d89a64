type t =
  | Announce of { prefix : Prefix.t; path : As_path.t }
  | Withdraw of { prefix : Prefix.t }

let prefix = function
  | Announce { prefix; _ } -> prefix
  | Withdraw { prefix } -> prefix

let pp fmt = function
  | Announce { prefix; path } ->
      Format.fprintf fmt "announce %a %a" Prefix.pp prefix As_path.pp path
  | Withdraw { prefix } -> Format.fprintf fmt "withdraw %a" Prefix.pp prefix
