(** List helpers shared across the project. *)

(** [find_remove p xs] returns the first element satisfying [p] together
    with the list without it, preserving order of the remainder. *)
let find_remove p xs =
  let rec go acc = function
    | [] -> None
    | x :: rest when p x -> Some (x, List.rev_append acc rest)
    | x :: rest -> go (x :: acc) rest
  in
  go [] xs

(** [partition_map f xs] splits [xs] by mapping each element to
    [Either.Left] or [Either.Right]. *)
let partition_map f xs =
  let rec go ls rs = function
    | [] -> (List.rev ls, List.rev rs)
    | x :: rest -> (
        match f x with
        | Either.Left l -> go (l :: ls) rs rest
        | Either.Right r -> go ls (r :: rs) rest)
  in
  go [] [] xs

let rec last = function
  | [] -> None
  | [ x ] -> Some x
  | _ :: rest -> last rest

(** [range a b] is [[a; a+1; ...; b-1]]. *)
let range a b = List.init (Stdlib.max 0 (b - a)) (fun i -> a + i)

(** [dedup ~compare xs] sorts and removes duplicates. *)
let dedup ~compare xs = List.sort_uniq compare xs

let sum = List.fold_left ( + ) 0

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

(** [all_pairs xs] lists every unordered pair of distinct positions. *)
let all_pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs

let rec zip_with f xs ys =
  match (xs, ys) with
  | x :: xs, y :: ys -> f x y :: zip_with f xs ys
  | _ -> []

(** [map_result f xs] maps [f] and collects, stopping at the first error. *)
let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
  in
  go [] xs
