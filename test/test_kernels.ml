(* The guards of CC1/CC2/CC3 and of the token layers allocate nothing:
   their set-valued macros are loops over the hypergraph's arrays (no
   list, sort, boxed option or projecting closure).  Checked by counting
   the minor words allocated while every guard of every process is
   evaluated on corrupted configurations, where the tree layer's leader
   states are arbitrary too. *)

module H = Snapcc_hypergraph.Hypergraph
module Families = Snapcc_hypergraph.Families
module Model = Snapcc_runtime.Model
module X = Snapcc_experiments.Algos

(* Words allocated by [Gc.minor_words] itself between two readings. *)
let probe_words () =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  w1 -. w0

module Guards (A : Model.ALGO) = struct
  (* contexts built up front: the engine builds one per scan, not per guard *)
  let contexts h ~seeds =
    Array.concat
      (List.map
         (fun seed ->
           let rng = Random.State.make [| seed |] in
           let states = Array.init (H.n h) (A.random_init h rng) in
           Array.init (H.n h) (fun p ->
               { Model.h; inputs = Model.input_modes.(seed mod 4) |> snd;
                 read = Array.get states; self = p }))
         seeds)

  (* minor words allocated by one pass of every guard over [ctxs], and how
     many guards held (so the pass is not vacuous) *)
  let pass (actions : A.state Model.action array) ctxs =
    let held = ref 0 in
    let w0 = Gc.minor_words () in
    for i = 0 to Array.length ctxs - 1 do
      for j = 0 to Array.length actions - 1 do
        if actions.(j).Model.guard ctxs.(i) then incr held
      done
    done;
    let w1 = Gc.minor_words () in
    (w1 -. w0, !held)

  let check name h =
    let actions = Array.of_list (A.actions h) in
    let ctxs = contexts h ~seeds:(List.init 40 Fun.id) in
    ignore (pass actions ctxs);
    let words, held = pass actions ctxs in
    Alcotest.(check bool) (name ^ ": some guard holds") true (held > 0);
    Alcotest.(check (float 0.)) (name ^ ": words allocated") (probe_words ()) words
end

module G_cc1 = Guards (X.Cc1)
module G_cc2 = Guards (X.Cc2)
module G_cc3 = Guards (X.Cc3)
module G_cc1_vring = Guards (X.Cc1_vring)
module G_cc2_vring = Guards (X.Cc2_vring)
module G_cc3_vring = Guards (X.Cc3_vring)
module G_cc1_widest = Guards (X.Cc1_widest)
module G_cc2_eager = Guards (X.Cc2_eager)
module G_token_only = Guards (X.Token_only)
module G_cc1_no_token = Guards (X.Cc1_no_token)

let test_guards_allocate_nothing () =
  List.iter
    (fun (topo, h) ->
      let at algo = algo ^ "/" ^ topo in
      G_cc1.check (at "cc1") h;
      G_cc2.check (at "cc2") h;
      G_cc3.check (at "cc3") h;
      G_cc1_vring.check (at "cc1-vring") h;
      G_cc2_vring.check (at "cc2-vring") h;
      G_cc3_vring.check (at "cc3-vring") h;
      G_cc1_widest.check (at "cc1-widest") h;
      G_cc2_eager.check (at "cc2-eager") h;
      G_token_only.check (at "token-only") h;
      G_cc1_no_token.check (at "cc1-no-token") h)
    [ ("ring9", Families.pair_ring 9); ("fig4", Families.fig4 ());
      ("fig2", Families.fig2 ()); ("star5", Families.star 5) ]

let suite =
  [ ("guard kernels",
     [ Alcotest.test_case "guards allocate nothing" `Quick test_guards_allocate_nothing ]) ]
