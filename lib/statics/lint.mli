(** One cell of [ccsim lint]: a catalog system on one topology, through
    every tier the configuration asks for.

    The sampled tier ({!Analyze}) always runs.  The exact tier ({!Exact})
    then judges it: every sampled finding must be reproduced (the
    agreement gate), and sampled dead-action suspects are reclassified on
    the exact evidence.  The symmetry admission ({!Symmetry}) runs over
    the exact tier's tables.  Both tiers run the resolved system under
    one locality {!waiver}. *)

type config = {
  seed : int;  (** mixed into the sampled tier's random configurations *)
  seeds : int;  (** random configurations seeded into the sampled tier *)
  max_configs : int;  (** cap on the sampled tier's enumeration *)
  exact : bool;  (** run the exact tier *)
  symmetry : bool;  (** run the symmetry admission (implies [exact]) *)
  table_cap : int option;
      (** exact-tier and admission cap on (cell, mode) pairs per process *)
  tables : string option;
      (** directory receiving [tables-NAME-TOPO.txt] (implies [exact]) *)
  orbits : string option;
      (** directory receiving [orbits-NAME-TOPO.txt] (implies [symmetry]) *)
}

val config :
  ?seed:int ->
  ?seeds:int ->
  ?max_configs:int ->
  ?exact:bool ->
  ?symmetry:bool ->
  ?table_cap:int ->
  ?tables:string ->
  ?orbits:string ->
  unit ->
  config
(** Defaults as {!Analyze.Make.analyze} (seed 0, 24 seeds, 240
    configurations), no exact tier.  An artifact directory implies the
    tier that writes it: [orbits] implies [symmetry], and [symmetry] or
    [tables] implies [exact]. *)

val waiver : Snapcc_mc.Systems.resolved -> Report.rule list
(** The rules a system's findings are waived under: [[Locality]] for a
    composition that is not local ({!Snapcc_mc.Systems.local_over}: the
    centralized baseline, any algorithm over the vring oracle), none
    otherwise. *)

type exact = {
  report : Report.t;
  coverage : Exact.coverage;
  unmatched : Report.finding list;
      (** sampled findings the exact tier did not reproduce
          ({!Exact.agreement}) *)
  symmetry : Symmetry.outcome option;
}

type cell = {
  name : string;  (** the system's catalog name *)
  topo : string;
  sampled : Report.t;
      (** with the exact tier, its dead suspects reclassified
          ({!Report.classify_dead}) *)
  exact : exact option;
}

val run :
  config ->
  Snapcc_mc.Systems.resolved ->
  topo:string ->
  Snapcc_hypergraph.Hypergraph.t ->
  cell
(** Run one cell, writing the artifacts the configuration names. *)

val ok : cell -> bool
(** Both tiers free of violations, and the tiers agree. *)

val to_json : config -> cell list -> Snapcc_telemetry.Json.t
(** The [--emit-json] document: the overall verdict, the sampled reports
    and, with the exact tier, one object per cell with its coverage,
    symmetry outcome and unmatched findings. *)
