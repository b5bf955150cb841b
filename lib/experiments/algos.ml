(** Pre-instantiated algorithm modules and their drivers: the combinations
    every experiment, test and benchmark draws from. *)

module Token_tree = Snapcc_token.Token_tree
module Token_vring = Snapcc_token.Token_vring
module Token_null = Snapcc_token.Token_null

(* The paper's algorithms over the honest (tree) substrate. *)
module Cc1 = Snapcc_core.Cc1.Std (Token_tree)
module Cc2 = Snapcc_core.Cc23.Cc2_std (Token_tree)
module Cc3 = Snapcc_core.Cc23.Cc3_std (Token_tree)

(* Same algorithms over the virtual-ring oracle (fast stabilization; used
   to separate CC-layer behaviour from TC-layer behaviour). *)
module Cc1_vring = Snapcc_core.Cc1.Std (Token_vring)
module Cc2_vring = Snapcc_core.Cc23.Cc2_std (Token_vring)
module Cc3_vring = Snapcc_core.Cc23.Cc3_std (Token_vring)

(* Ablations and §6 baselines. *)
module Cc1_no_token = Snapcc_core.Cc1.Std (Token_null)
module Token_only = Snapcc_core.Cc23.Token_only_std (Token_vring)
module Cc1_widest =
  Snapcc_core.Cc1.Make (Token_tree) (Snapcc_core.Cc_common.Widest_params)
module Cc2_eager = Snapcc_core.Cc23.Eager_release_std (Token_tree)
module Dining = Snapcc_baselines.Dining
module Central = Snapcc_baselines.Central

(* Drivers. *)
module Run_cc1 = Driver.Make (Cc1)
module Run_cc2 = Driver.Make (Cc2)
module Run_cc3 = Driver.Make (Cc3)
module Run_cc2_vring = Driver.Make (Cc2_vring)
module Run_cc1_no_token = Driver.Make (Cc1_no_token)
module Run_token_only = Driver.Make (Token_only)
module Run_cc1_widest = Driver.Make (Cc1_widest)
module Run_cc2_eager = Driver.Make (Cc2_eager)
module Run_dining = Driver.Make (Dining)
module Run_central = Driver.Make (Central)

(* The table used by sweep experiments: a label and the algorithm, which
   the caller runs through [Driver.Make] locally. *)
type runner = { label : string; algo : (module Snapcc_runtime.Model.ALGO) }

let paper_algorithms () =
  [ { label = "CC1"; algo = (module Cc1) };
    { label = "CC2"; algo = (module Cc2) };
    { label = "CC3"; algo = (module Cc3) } ]

let baseline_algorithms () =
  [ { label = "token-only"; algo = (module Token_only) };
    { label = "dining"; algo = (module Dining) };
    { label = "central"; algo = (module Central) } ]

let all_algorithms () = paper_algorithms () @ baseline_algorithms ()
