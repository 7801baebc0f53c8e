type policy =
  | Drop_packet
  | Continue_packet
  | Unbind

type reason =
  | Exn of string
  | Budget of int

type event =
  | Faulted of int * string
  | Recovered of int

let policy_name = function
  | Drop_packet -> "drop"
  | Continue_packet -> "continue"
  | Unbind -> "unbind"

let policy_of_name = function
  | "drop" -> Some Drop_packet
  | "continue" -> Some Continue_packet
  | "unbind" -> Some Unbind
  | _ -> None

let reason_to_string = function
  | Exn e -> Printf.sprintf "exception: %s" e
  | Budget c -> Printf.sprintf "cycle budget exceeded (%d cycles)" c
