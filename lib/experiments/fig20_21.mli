(** Figs. 20–21 — concurrent meetings and participants over two weeks.

    Daily peaks from the synthetic campus dataset, showing the diurnal
    weekday pattern with quiet weekends that drives the over-provisioning
    argument of the paper's introduction. *)

type day = { day : int; peak_meetings : float; peak_participants : float }

type result = {
  days : day list;
  overall_peak_meetings : float;
  overall_peak_participants : float;
  weekend_weekday_ratio : float;  (** peak weekend load / peak weekday load *)
}

val compute : ?quick:bool -> unit -> result
val claims : result Claim.t list
val print : result -> unit
