#include "trace/generators.hpp"

#include <algorithm>
#include <cmath>

#include "core/flow.hpp"
#include "util/error.hpp"

namespace dpg {

namespace {

/// Draws strictly increasing, globally unique request times by merging
/// per-stream exponential arrivals; ties are impossible because each event
/// advances a running clock by a strictly positive amount.
class UniqueClock {
 public:
  /// Returns a time strictly greater than every time returned so far and at
  /// least `at`.
  Time claim(Time at) {
    // Nudge forward until strictly past the last issued instant.
    const Time t = std::max(at, last_ + kMinSeparation);
    last_ = t;
    return t;
  }

 private:
  static constexpr Time kMinSeparation = 1e-7;
  Time last_ = 0.0;
};

ServerId sticky_walk(ServerId current, double locality, std::size_t m,
                     Rng& rng) {
  if (rng.next_bool(locality)) return current;
  return static_cast<ServerId>(rng.next_below(m));
}

}  // namespace

RequestSequence generate_paired_trace(const PairedTraceConfig& config,
                                      Rng& rng) {
  require(config.server_count > 0, "paired trace: need >= 1 server");
  require(!config.pair_jaccard.empty(), "paired trace: need >= 1 pair");
  require(config.mean_gap > 0.0, "paired trace: mean_gap must be positive");
  for (const double j : config.pair_jaccard) {
    require(j >= 0.0 && j <= 1.0, "paired trace: jaccard must be in [0, 1]");
  }

  const std::size_t pair_count = config.pair_jaccard.size();
  const std::size_t item_count = 2 * pair_count;

  // Per-pair event streams: (time, pair, kind). Generate arrival times per
  // pair so each pair sees `requests_per_pair` requests.
  struct Event {
    Time time;
    std::size_t pair;
  };
  std::vector<Event> events;
  events.reserve(pair_count * config.requests_per_pair);
  for (std::size_t p = 0; p < pair_count; ++p) {
    Time t = 0.0;
    for (std::size_t i = 0; i < config.requests_per_pair; ++i) {
      t += rng.next_exponential(1.0 / config.mean_gap);
      events.push_back(Event{t, p});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });

  // Each item follows its own sticky walk; the walks merge whenever the two
  // items are co-requested (the carriers met) and diverge again afterwards.
  // Low-J pairs therefore have spatially divergent singleton trajectories,
  // which is what makes always-packing genuinely costly at large α.
  std::vector<ServerId> item_server(item_count, kOriginServer);
  for (auto& server : item_server) {
    server = static_cast<ServerId>(rng.next_below(config.server_count));
  }

  UniqueClock clock;
  SequenceBuilder builder(config.server_count, item_count);
  for (const Event& event : events) {
    const std::size_t p = event.pair;
    const auto a = static_cast<ItemId>(2 * p);
    const auto b = static_cast<ItemId>(2 * p + 1);
    std::vector<ItemId> items;
    ServerId where;
    if (rng.next_bool(config.pair_jaccard[p])) {
      item_server[a] =
          sticky_walk(item_server[a], config.locality, config.server_count, rng);
      item_server[b] = item_server[a];  // the carriers are together
      where = item_server[a];
      items = {a, b};
    } else {
      const ItemId item = rng.next_bool(0.5) ? a : b;
      item_server[item] = sticky_walk(item_server[item], config.locality,
                                      config.server_count, rng);
      where = item_server[item];
      items = {item};
    }
    builder.add(where, clock.claim(event.time), std::move(items));
  }
  return std::move(builder).build();
}

RequestSequence generate_zipf_trace(const ZipfTraceConfig& config, Rng& rng) {
  require(config.server_count > 0, "zipf trace: need >= 1 server");
  require(config.item_count > 0, "zipf trace: need >= 1 item");
  require(config.mean_gap > 0.0, "zipf trace: mean_gap must be positive");
  require(config.co_access >= 0.0 && config.co_access <= 1.0,
          "zipf trace: co_access must be in [0, 1]");

  // Precompute Zipf weights once (Rng::next_zipf is O(k) per draw), and
  // their prefix sums: the table draws next_weighted's index in O(log k).
  std::vector<double> weights(config.item_count);
  for (std::size_t i = 0; i < config.item_count; ++i) {
    weights[i] = std::pow(static_cast<double>(i + 1), -config.zipf_exponent);
  }
  const WeightedTable item_table(weights);

  UniqueClock clock;
  SequenceBuilder builder(config.server_count, config.item_count);
  Time t = 0.0;
  ServerId server = kOriginServer;
  for (std::size_t i = 0; i < config.request_count; ++i) {
    t += rng.next_exponential(1.0 / config.mean_gap);
    server = sticky_walk(server, config.locality, config.server_count, rng);
    const auto item = static_cast<ItemId>(item_table.draw(rng));
    std::vector<ItemId> items{item};
    const ItemId partner = item ^ 1u;
    if (partner < config.item_count && rng.next_bool(config.co_access)) {
      items.push_back(partner);
    }
    builder.add(server, clock.claim(t), std::move(items));
  }
  return std::move(builder).build();
}

RequestSequence generate_bursty_trace(const BurstyTraceConfig& config,
                                      Rng& rng) {
  require(config.server_count > 0, "bursty trace: need >= 1 server");
  require(config.item_count > 0, "bursty trace: need >= 1 item");
  require(config.working_set >= 1 && config.working_set <= config.item_count,
          "bursty trace: working_set must be in [1, item_count]");
  require(config.intra_burst_gap > 0.0 && config.inter_burst_gap > 0.0,
          "bursty trace: gaps must be positive");

  UniqueClock clock;
  SequenceBuilder builder(config.server_count, config.item_count);
  Time t = 0.0;
  for (std::size_t burst = 0; burst < config.burst_count; ++burst) {
    t += rng.next_exponential(1.0 / config.inter_burst_gap);
    // Each burst happens around one venue with a small working set.
    const auto venue =
        static_cast<ServerId>(rng.next_below(config.server_count));
    std::vector<ItemId> working_set;
    while (working_set.size() < config.working_set) {
      const auto item = static_cast<ItemId>(rng.next_below(config.item_count));
      if (std::find(working_set.begin(), working_set.end(), item) ==
          working_set.end()) {
        working_set.push_back(item);
      }
    }
    for (std::size_t i = 0; i < config.requests_per_burst; ++i) {
      t += rng.next_exponential(1.0 / config.intra_burst_gap);
      // Mostly the venue, occasionally a neighbour; items: one or both of
      // the working set.
      const ServerId where =
          rng.next_bool(0.8)
              ? venue
              : static_cast<ServerId>(rng.next_below(config.server_count));
      std::vector<ItemId> items{working_set[rng.next_below(working_set.size())]};
      if (working_set.size() > 1 && rng.next_bool(0.5)) {
        const ItemId other = working_set[rng.next_below(working_set.size())];
        if (other != items.front()) items.push_back(other);
      }
      builder.add(where, clock.claim(t), std::move(items));
    }
  }
  return std::move(builder).build();
}

RequestSequence generate_adversarial_window_trace(
    const AdversarialWindowConfig& config) {
  require(config.server_count > 0, "adversarial trace: need >= 1 server");
  require(config.rounds > 0, "adversarial trace: need >= 1 round");
  require(config.gap > 0.0, "adversarial trace: gap must be positive");
  SequenceBuilder builder(config.server_count, 1);
  Time t = 0.0;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      t += config.gap;
      builder.add(static_cast<ServerId>(s), t, {0});
    }
  }
  return std::move(builder).build();
}

RequestSequence generate_uniform_trace(const UniformTraceConfig& config,
                                       Rng& rng) {
  require(config.server_count > 0, "uniform trace: need >= 1 server");
  require(config.item_count > 0, "uniform trace: need >= 1 item");
  require(config.mean_gap > 0.0, "uniform trace: mean_gap must be positive");
  UniqueClock clock;
  SequenceBuilder builder(config.server_count, config.item_count);
  Time t = 0.0;
  for (std::size_t i = 0; i < config.request_count; ++i) {
    t += rng.next_exponential(1.0 / config.mean_gap);
    builder.add(static_cast<ServerId>(rng.next_below(config.server_count)),
                clock.claim(t),
                {static_cast<ItemId>(rng.next_below(config.item_count))});
  }
  return std::move(builder).build();
}

}  // namespace dpg
