// Numeric baseline: exact per-point metric means of shrunk campaigns over
// the genuine trial code paths, pinned exactly. The identity tests
// prove that every execution path agrees with the serial run; these pins
// prove the serial run itself has not moved, so a PR that changes
// behavior must regenerate them on purpose.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace hs::campaign {
namespace {

Scenario shrunk(const char* preset, std::vector<double> axis_values,
                std::size_t units_per_trial) {
  const Scenario* s = find_scenario(preset);
  EXPECT_NE(s, nullptr) << preset;
  Scenario out = *s;
  if (!axis_values.empty()) out.axis_values = std::move(axis_values);
  out.units_per_trial = units_per_trial;
  return out;
}

struct Pin {
  const char* scenario;
  std::size_t point;
  const char* metric;
  double mean;  // seed 1, shrunk sweeps below
};

// Regenerate if a behavior-changing PR moves the exact values (this
// suite will say so): run the shrunk sweeps below at seed 1 and paste
// the new means.
const Pin kPins[] = {
    {"fig9-eaves-ber", 0, "adversary_ber", 0.48309748427672949},
    {"fig9-eaves-ber", 0, "shield_packet_loss", 0.0},
    {"fig9-eaves-ber", 1, "adversary_ber", 0.49056603773584906},
    {"fig9-eaves-ber", 1, "shield_packet_loss", 0.0},
    {"fig5-jam-shaped", 0, "tone_band_fraction", 0.91525394134746518},
    // Active attacks and coexistence: every outcome below is decided by
    // a receiver lock (the IMD's, the shield's monitor's or the
    // adversary's), so these pin preamble detection one decision at a time.
    {"fig11-trigger", 0, "attack_success", 0.0},
    {"fig11-trigger", 0, "alarm", 0.0},
    {"fig11-trigger", 0, "battery_mj", 0.0},
    {"fig11-trigger", 1, "attack_success", 0.0},
    {"fig11-trigger", 1, "battery_mj", 0.0},
    {"fig11-trigger", 2, "attack_success", 0.0},
    {"fig11-trigger", 2, "battery_mj", 0.0},
    {"fig11-trigger", 3, "attack_success", 0.0},
    {"fig11-trigger", 3, "alarm", 0.0},
    {"fig11-trigger", 3, "battery_mj", 0.0},
    {"fig11-trigger-noshield", 0, "attack_success", 1.0},
    {"fig11-trigger-noshield", 0, "alarm", 0.0},
    {"fig11-trigger-noshield", 0, "battery_mj", 0.50880000000000125},
    {"fig11-trigger-noshield", 1, "attack_success", 0.0},
    {"fig11-trigger-noshield", 1, "battery_mj", 0.0},
    {"table2-coexistence", 0, "cross_traffic_jammed", 0.0},
    {"table2-coexistence", 0, "imd_command_jammed", 1.0},
    {"table2-coexistence", 0, "turnaround_us", 159.99999999999869},
    {"table2-coexistence", 1, "cross_traffic_jammed", 0.0},
    {"table2-coexistence", 1, "imd_command_jammed", 1.0},
    {"table2-coexistence", 1, "turnaround_us", 159.99999999999869},
    {"table2-coexistence", 2, "cross_traffic_jammed", 0.0},
    {"table2-coexistence", 2, "imd_command_jammed", 1.0},
    // No turnaround sample at location 9 (the shield's last jam end falls
    // before the adversary's nominal frame end), so the mean stays 0.
    {"table2-coexistence", 2, "turnaround_us", 0.0},
};

CampaignResult run_shrunk(const Scenario& s, std::size_t trials) {
  CampaignOptions opt;
  opt.seed = 1;
  opt.trials_per_point = trials;
  opt.threads = 1;
  return run_campaign(s, opt);
}

void check_pins(const Scenario& s, const CampaignResult& res) {
  for (const Pin& pin : kPins) {
    if (s.name != pin.scenario) continue;
    Metric m{};
    ASSERT_TRUE(metric_from_name(pin.metric, &m)) << pin.metric;
    ASSERT_LT(pin.point, res.points.size());
    const double got =
        res.points[pin.point].metrics[static_cast<std::size_t>(m)].mean();
    EXPECT_TRUE(std::isfinite(got))
        << s.name << " point " << pin.point << " " << pin.metric;
    // The pins are exact by construction; a mismatch here means a PR
    // changed behavior and the table needs regenerating.
    EXPECT_EQ(got, pin.mean)
        << s.name << " point " << pin.point << " " << pin.metric
        << " moved; regenerate the pin table";
  }
}

TEST(NumericBaseline, EavesdropBerPinned) {
  const Scenario s = shrunk("fig9-eaves-ber", {3.0, 11.0}, 1);
  check_pins(s, run_shrunk(s, 6));
}

TEST(NumericBaseline, TriggerAttackPinned) {
  const Scenario s = shrunk("fig11-trigger", {1.0, 6.0, 10.0, 14.0}, 1);
  check_pins(s, run_shrunk(s, 12));
  const Scenario bare = shrunk("fig11-trigger-noshield", {2.0, 14.0}, 1);
  check_pins(bare, run_shrunk(bare, 4));
}

TEST(NumericBaseline, CoexistencePinned) {
  const Scenario s = shrunk("table2-coexistence", {1.0, 5.0, 9.0}, 1);
  check_pins(s, run_shrunk(s, 6));
}

TEST(NumericBaseline, ShapedJammingSpectrumPinned) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  check_pins(s, run_shrunk(s, 4));
}

}  // namespace
}  // namespace hs::campaign
