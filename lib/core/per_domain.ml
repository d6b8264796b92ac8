let rec find owner id = function
  | [] -> raise_notrace Not_found
  | c :: tl -> if owner c = id then c else find owner id tl

let get cells ~owner ~make =
  let id = (Domain.self () :> int) in
  match find owner id (Atomic.get cells) with
  | c -> c
  | exception Not_found ->
    let c = make id in
    let rec register () =
      let old = Atomic.get cells in
      match find owner id old with
      | c' -> c'
      | exception Not_found ->
        if Atomic.compare_and_set cells old (c :: old) then c else register ()
    in
    register ()
