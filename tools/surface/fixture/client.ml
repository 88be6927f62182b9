(* Calls Api.used directly, Api.via_alias through a module alias, and
   every value of Ord by passing the module to a functor. *)
module A = Api
module S = Set.Make (Ord)

let () = ignore (S.cardinal (S.of_list [ Api.used 1; A.via_alias ]))
