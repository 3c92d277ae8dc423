(** The contention-adaptive tier's (E22) scope under its original name. *)

val with_enabled : (unit -> 'a) -> 'a
(** [with_enabled f] is [Sync_prims.Tier.with_tier `Fast f]. *)
