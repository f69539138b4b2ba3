#include "campaign/scenario.hpp"

#include <array>

#include "channel/geometry.hpp"
#include "mics/band.hpp"

namespace hs::campaign {

namespace {

std::vector<double> location_range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(static_cast<double>(i));
  return v;
}

std::vector<double> linear_range(double lo, double hi, double step) {
  std::vector<double> v;
  for (double x = lo; x <= hi + 1e-9; x += step) v.push_back(x);
  return v;
}

Scenario eavesdrop_base(std::string name, std::string ref) {
  Scenario s;
  s.name = std::move(name);
  s.paper_ref = std::move(ref);
  s.kind = ExperimentKind::kEavesdrop;
  s.units_per_trial = 4;  // packets per trial
  s.default_trials = 10;
  return s;
}

Scenario attack_base(std::string name, std::string ref,
                     shield::AttackKind kind, bool shield_present) {
  Scenario s;
  s.name = std::move(name);
  s.paper_ref = std::move(ref);
  s.kind = ExperimentKind::kActiveAttack;
  s.attack_kind = kind;
  s.shield_present = shield_present;
  s.units_per_trial = 1;
  s.default_trials = 50;
  return s;
}

std::vector<Scenario> build_presets() {
  const int all_locations = static_cast<int>(channel::kTestbedLocationCount);
  std::vector<Scenario> presets;

  // --- Fig. 3: IMD reply timing, medium idle vs busy -----------------------
  {
    Scenario s;
    s.name = "fig3-imd-timing";
    s.paper_ref = "Figure 3";
    s.description = "IMD reply delay with the medium idle vs kept busy "
                    "(no carrier sense)";
    s.kind = ExperimentKind::kImdTiming;
    s.default_trials = 20;
    presets.push_back(std::move(s));
  }

  // --- Figs. 4-5: spectral profiles ----------------------------------------
  {
    Scenario s;
    s.name = "fig4-fsk-profile";
    s.paper_ref = "Figure 4";
    s.description = "fraction of the IMD's FSK power near the +-50 kHz "
                    "tones";
    s.kind = ExperimentKind::kSpectrum;
    s.spectrum_of_jammer = false;
    s.default_trials = 8;
    presets.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig5-jam-shaped";
    s.paper_ref = "Figure 5";
    s.description = "tone-band power fraction of the shaped jamming "
                    "profile";
    s.kind = ExperimentKind::kSpectrum;
    s.spectrum_of_jammer = true;
    s.jam_profile = shield::JamProfile::kShaped;
    s.default_trials = 8;
    presets.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig5-jam-constant";
    s.paper_ref = "Figure 5";
    s.description = "tone-band power fraction of the oblivious constant "
                    "jamming profile";
    s.kind = ExperimentKind::kSpectrum;
    s.spectrum_of_jammer = true;
    s.jam_profile = shield::JamProfile::kConstant;
    s.default_trials = 8;
    presets.push_back(std::move(s));
  }

  // --- Fig. 7: antidote cancellation CDF -----------------------------------
  {
    Scenario s;
    s.name = "fig7-cancellation";
    s.paper_ref = "Figure 7";
    s.description = "antidote cancellation depth at the shield's receive "
                    "antenna (~32 dB)";
    s.kind = ExperimentKind::kCancellation;
    s.default_trials = 200;
    presets.push_back(std::move(s));
  }

  // --- Fig. 8: BER/PER vs relative jamming power ---------------------------
  {
    auto s = eavesdrop_base("fig8-tradeoff", "Figures 8(a), 8(b)");
    s.description = "adversary BER vs shield packet loss across jamming "
                    "margins";
    s.use_margin_override = true;
    s.axis = SweepAxis::kJamMarginDb;
    s.axis_values = linear_range(0.0, 25.0, 2.5);
    s.default_trials = 15;
    presets.push_back(std::move(s));
  }

  // --- Fig. 9: eavesdropper BER at every testbed location ------------------
  {
    auto s = eavesdrop_base("fig9-eaves-ber", "Figure 9");
    s.description = "eavesdropper BER (~0.5) at all 18 testbed locations";
    s.axis = SweepAxis::kLocation;
    s.axis_values = location_range(1, all_locations);
    presets.push_back(std::move(s));
  }

  // --- Fig. 10: shield packet loss while jamming ---------------------------
  {
    auto s = eavesdrop_base("fig10-shield-per", "Figure 10");
    s.description = "shield packet loss decoding through its own jamming "
                    "(~0.2%)";
    s.units_per_trial = 200;
    s.default_trials = 12;
    presets.push_back(std::move(s));
  }

  // --- Figs. 11-13: active attacks, shield present and absent --------------
  for (bool shield_present : {true, false}) {
    const char* suffix = shield_present ? "" : "-noshield";
    const char* with = shield_present ? "with" : "without";
    {
      auto s = attack_base(std::string("fig11-trigger") + suffix,
                           "Figure 11",
                           shield::AttackKind::kTriggerTransmission,
                           shield_present);
      s.description = std::string("battery-depletion trigger attack by "
                                  "location, ") + with + " the shield";
      s.axis = SweepAxis::kLocation;
      s.axis_values = location_range(1, 14);
      presets.push_back(std::move(s));
    }
    {
      auto s = attack_base(std::string("fig12-therapy") + suffix,
                           "Figure 12", shield::AttackKind::kChangeTherapy,
                           shield_present);
      s.description = std::string("therapy-modification attack by "
                                  "location, ") + with + " the shield";
      s.axis = SweepAxis::kLocation;
      s.axis_values = location_range(1, 14);
      presets.push_back(std::move(s));
    }
    {
      auto s = attack_base(std::string("fig13-high-power") + suffix,
                           "Figure 13", shield::AttackKind::kChangeTherapy,
                           shield_present);
      s.description = std::string("100x-power therapy attack by "
                                  "location, ") + with + " the shield";
      s.extra_power_db = 20.0;  // the 100x adversary
      s.axis = SweepAxis::kLocation;
      s.axis_values = location_range(1, all_locations);
      presets.push_back(std::move(s));
    }
  }

  // --- Table 1: P_thresh calibration ---------------------------------------
  {
    Scenario s;
    s.name = "table1-pthresh";
    s.paper_ref = "Table 1";
    s.description = "adversarial RSSI at the shield that elicits IMD "
                    "responses despite jamming";
    s.kind = ExperimentKind::kPthresh;
    s.axis = SweepAxis::kAdversaryPowerDbm;
    s.axis_values = linear_range(-16.0, 14.0, 2.0);
    s.units_per_trial = 2;  // packets per power per trial
    s.default_trials = 5;
    presets.push_back(std::move(s));
  }

  // --- Table 2: coexistence and turn-around --------------------------------
  {
    Scenario s;
    s.name = "table2-coexistence";
    s.paper_ref = "Table 2";
    s.description = "IMD commands jammed, radiosonde cross-traffic spared, "
                    "turn-around time";
    s.kind = ExperimentKind::kCoexistence;
    s.axis = SweepAxis::kLocation;
    s.axis_values = {1, 3, 5, 7, 9};
    s.units_per_trial = 1;  // one command + one cross frame per trial
    s.default_trials = 10;
    presets.push_back(std::move(s));
  }

  // --- Section 6(a) ablation: jamming profile vs decoder -------------------
  {
    struct Cell {
      const char* name;
      shield::JamProfile profile;
      bool bandpass;
    };
    const std::array<Cell, 4> cells = {{
        {"ablate-shaping-shaped-opt", shield::JamProfile::kShaped, false},
        {"ablate-shaping-shaped-bpf", shield::JamProfile::kShaped, true},
        {"ablate-shaping-constant-opt", shield::JamProfile::kConstant, false},
        {"ablate-shaping-constant-bpf", shield::JamProfile::kConstant, true},
    }};
    for (const auto& cell : cells) {
      auto s = eavesdrop_base(cell.name, "Section 6(a), Figure 5");
      s.description = "shaping ablation: adversary BER for this jammer/"
                      "decoder pairing";
      s.jam_profile = cell.profile;
      s.bandpass_attack = cell.bandpass;
      s.use_margin_override = true;
      s.axis = SweepAxis::kJamMarginDb;
      s.axis_values = {8.0, 14.0, 20.0};
      s.default_trials = 15;
      presets.push_back(std::move(s));
    }
  }

  // The antidote-accuracy sweep shared by the SINR-gap and positional
  // ablations, so their per-sigma rows line up in the joint bench table.
  const std::vector<double> sigma_sweep = {0.003, 0.01, 0.025,
                                           0.05, 0.10, 0.30};

  // --- SINR-gap ablation: antidote accuracy sweep --------------------------
  {
    auto s = eavesdrop_base("ablate-gap", "Section 6(b), equation 9");
    s.description = "SINR-gap ablation: adversary BER and shield loss vs "
                    "antidote accuracy";
    s.use_margin_override = true;
    s.axis = SweepAxis::kHardwareErrorSigma;
    s.axis_values = sigma_sweep;
    presets.push_back(std::move(s));
  }

  // --- Positional ablation: cancellation vs antidote accuracy --------------
  {
    Scenario s;
    s.name = "ablate-positional";
    s.paper_ref = "Sections 1, 5, 12";
    s.description = "antidote cancellation depth vs hardware accuracy (no "
                    "antenna separation)";
    s.kind = ExperimentKind::kCancellation;
    s.axis = SweepAxis::kHardwareErrorSigma;
    s.axis_values = sigma_sweep;
    s.default_trials = 50;
    presets.push_back(std::move(s));
  }

  // --- Extension: battery-depletion economics (ext bench) ------------------
  for (bool shield_present : {true, false}) {
    auto s = attack_base(
        std::string("ext-battery") + (shield_present ? "" : "-noshield"),
        "Section 10.3 extension",
        shield::AttackKind::kTriggerTransmission, shield_present);
    s.description = "IMD battery energy an interrogation-flood attack "
                    "drains at location 3";
    s.adversary_locations = {3};
    presets.push_back(std::move(s));
  }

  // --- Extension: scalar vs FIR antidote under multipath -------------------
  {
    Scenario s;
    s.name = "ext-multipath";
    s.paper_ref = "Section 5 footnote 2";
    s.description = "scalar vs 64-tap FIR antidote as H_jam->rec grows a "
                    "second tap";
    s.kind = ExperimentKind::kMultipathAntidote;
    s.axis = SweepAxis::kMultipathTapDb;
    s.axis_values = {-40.0, -30.0, -20.0, -12.0, -6.0, -3.0};
    s.default_trials = 6;
    presets.push_back(std::move(s));
  }

  // --- Extension: whole-band monitoring vs a hopping adversary -------------
  {
    Scenario s;
    s.name = "ext-wideband";
    s.paper_ref = "Section 7(c)";
    s.description = "3 MHz monitor detection and reaction point on every "
                    "MICS channel";
    s.kind = ExperimentKind::kWideband;
    s.axis = SweepAxis::kMicsChannel;
    s.axis_values =
        location_range(0, static_cast<int>(mics::kChannelCount) - 1);
    s.default_trials = 3;
    presets.push_back(std::move(s));
  }

  // --- New variant: simultaneous eavesdroppers (best-adversary BER) --------
  {
    auto s = eavesdrop_base("multi-adversary-eaves",
                            "Figure 9 variant: 4 simultaneous eavesdroppers");
    s.description = "per-packet best-of-4 eavesdropper BER across jamming "
                    "margins";
    s.adversary_locations = {1, 4, 7, 10};
    s.axis = SweepAxis::kJamMarginDb;
    s.use_margin_override = true;
    s.axis_values = {10.0, 15.0, 20.0};
    presets.push_back(std::move(s));
  }

  // --- New variant: one shield, two implanted devices ----------------------
  {
    auto s = attack_base("multi-imd-trigger",
                         "Figure 11 variant: Virtuoso + Concerto patient",
                         shield::AttackKind::kTriggerTransmission, true);
    s.description = "trigger attack against a two-IMD patient, shield "
                    "present";
    s.imd_profiles = {imd::virtuoso_profile(), imd::concerto_profile()};
    s.axis = SweepAxis::kLocation;
    s.axis_values = location_range(1, 8);
    presets.push_back(std::move(s));
  }
  {
    auto s = attack_base("multi-imd-trigger-noshield",
                         "Figure 11 variant: Virtuoso + Concerto patient",
                         shield::AttackKind::kTriggerTransmission, false);
    s.description = "trigger attack against a two-IMD patient, shield "
                    "absent";
    s.imd_profiles = {imd::virtuoso_profile(), imd::concerto_profile()};
    s.axis = SweepAxis::kLocation;
    s.axis_values = location_range(1, 8);
    presets.push_back(std::move(s));
  }

  return presets;
}

}  // namespace

std::string_view metric_name(Metric metric) {
  switch (metric) {
    case Metric::kAdversaryBer: return "adversary_ber";
    case Metric::kShieldPacketLoss: return "shield_packet_loss";
    case Metric::kAttackSuccess: return "attack_success";
    case Metric::kAlarm: return "alarm";
    case Metric::kBatteryMj: return "battery_mj";
    case Metric::kCrossTrafficJammed: return "cross_traffic_jammed";
    case Metric::kImdCommandJammed: return "imd_command_jammed";
    case Metric::kTurnaroundUs: return "turnaround_us";
    case Metric::kPthreshSuccess: return "pthresh_success";
    case Metric::kPthreshRssiDbm: return "pthresh_rssi_dbm";
    case Metric::kReplyDelayIdleMs: return "reply_delay_idle_ms";
    case Metric::kReplyDelayBusyMs: return "reply_delay_busy_ms";
    case Metric::kCancellationDb: return "cancellation_db";
    case Metric::kToneBandFraction: return "tone_band_fraction";
    case Metric::kScalarCancellationDb: return "scalar_cancellation_db";
    case Metric::kMultitapCancellationDb: return "multitap_cancellation_db";
    case Metric::kWidebandDetect: return "wideband_detect";
    case Metric::kWidebandReactionMs: return "wideband_reaction_ms";
  }
  return "unknown";
}

bool metric_from_name(std::string_view name, Metric* out) {
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const Metric metric = static_cast<Metric>(m);
    if (metric_name(metric) == name) {
      *out = metric;
      return true;
    }
  }
  return false;
}

bool metric_is_indicator(Metric metric) {
  switch (metric) {
    case Metric::kAttackSuccess:
    case Metric::kAlarm:
    case Metric::kCrossTrafficJammed:
    case Metric::kImdCommandJammed:
    case Metric::kPthreshSuccess:
    case Metric::kWidebandDetect:
      return true;
    default:
      return false;
  }
}

const std::vector<Metric>& metrics_for(ExperimentKind kind) {
  static const std::vector<Metric> eavesdrop = {
      Metric::kAdversaryBer, Metric::kShieldPacketLoss};
  static const std::vector<Metric> attack = {
      Metric::kAttackSuccess, Metric::kAlarm, Metric::kBatteryMj};
  static const std::vector<Metric> coexistence = {
      Metric::kCrossTrafficJammed, Metric::kImdCommandJammed,
      Metric::kTurnaroundUs};
  static const std::vector<Metric> pthresh = {Metric::kPthreshSuccess,
                                              Metric::kPthreshRssiDbm};
  static const std::vector<Metric> timing = {Metric::kReplyDelayIdleMs,
                                             Metric::kReplyDelayBusyMs};
  static const std::vector<Metric> cancellation = {Metric::kCancellationDb};
  static const std::vector<Metric> spectrum = {Metric::kToneBandFraction};
  static const std::vector<Metric> multipath = {
      Metric::kScalarCancellationDb, Metric::kMultitapCancellationDb};
  static const std::vector<Metric> wideband = {Metric::kWidebandDetect,
                                               Metric::kWidebandReactionMs};
  switch (kind) {
    case ExperimentKind::kEavesdrop: return eavesdrop;
    case ExperimentKind::kActiveAttack: return attack;
    case ExperimentKind::kCoexistence: return coexistence;
    case ExperimentKind::kPthresh: return pthresh;
    case ExperimentKind::kImdTiming: return timing;
    case ExperimentKind::kCancellation: return cancellation;
    case ExperimentKind::kSpectrum: return spectrum;
    case ExperimentKind::kMultipathAntidote: return multipath;
    case ExperimentKind::kWideband: return wideband;
  }
  return eavesdrop;
}

std::string_view experiment_kind_name(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kEavesdrop: return "eavesdrop";
    case ExperimentKind::kActiveAttack: return "active_attack";
    case ExperimentKind::kCoexistence: return "coexistence";
    case ExperimentKind::kPthresh: return "pthresh";
    case ExperimentKind::kImdTiming: return "imd_timing";
    case ExperimentKind::kCancellation: return "cancellation";
    case ExperimentKind::kSpectrum: return "spectrum";
    case ExperimentKind::kMultipathAntidote: return "multipath_antidote";
    case ExperimentKind::kWideband: return "wideband";
  }
  return "eavesdrop";
}

std::string_view axis_name(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kNone: return "point";
    case SweepAxis::kLocation: return "location";
    case SweepAxis::kJamMarginDb: return "jam_margin_db";
    case SweepAxis::kExtraPowerDb: return "extra_power_db";
    case SweepAxis::kHardwareErrorSigma: return "hardware_error_sigma";
    case SweepAxis::kAdversaryPowerDbm: return "adversary_power_dbm";
    case SweepAxis::kMultipathTapDb: return "multipath_tap_db";
    case SweepAxis::kMicsChannel: return "mics_channel";
  }
  return "point";
}

const std::vector<Scenario>& scenario_presets() {
  static const std::vector<Scenario> presets = build_presets();
  return presets;
}

const Scenario* find_scenario(std::string_view name) {
  for (const auto& s : scenario_presets()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace hs::campaign
