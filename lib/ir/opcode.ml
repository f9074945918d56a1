(* Arithmetic and comparison operators of the RISC-like TRIPS intermediate
   language.  Semantics are total: division and remainder by zero yield
   zero so that speculatively executed instructions can never fault, which
   mirrors the way an EDGE machine nullifies mis-speculated work. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Asr

type cmpop = Eq | Ne | Lt | Le | Gt | Ge

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then 0 else a / b
  | Rem -> if b = 0 then 0 else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl (b land 63)
  | Shr -> a lsr (b land 63)
  | Asr -> a asr (b land 63)

(* [int] operands: compared inline, not through the polymorphic compare *)
let eval_cmp op (a : int) (b : int) =
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if r then 1 else 0

(** [negate_cmp op] is the comparison computing the logical complement. *)
let negate_cmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(** Commutative operators may have their operands swapped by value
    numbering to canonicalize expressions. *)
let is_commutative = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | Div | Rem | Shl | Shr | Asr -> false

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Asr -> "asr"

let cmpop_to_string = function
  | Eq -> "teq"
  | Ne -> "tne"
  | Lt -> "tlt"
  | Le -> "tle"
  | Gt -> "tgt"
  | Ge -> "tge"

let pp_binop fmt op = Fmt.string fmt (binop_to_string op)
let pp_cmpop fmt op = Fmt.string fmt (cmpop_to_string op)
