(** The degenerate token layer: nobody ever holds a token.

    Used for the ablation experiments only — composing CC1 with this layer
    shows why the circulating token is needed for Progress (meetings whose
    members all wait can still starve behind identifier-priority races). *)

type state = unit

let name = "token-null"
let pp_state ppf () = Format.pp_print_string ppf "-"
let equal_state () () = true
let init _ _ = ()
let random_init _ _ _ = ()
let has_token _ ~read:_ ~get:_ _ = false
let release _ ~read:_ ~get:_ _ = ()
let internal_actions _ ~get:_ ~set:_ = []
let domain _ _ = [ () ]
let rename _ ~pi:_ _ () = ()
let state_symmetries _ = []
