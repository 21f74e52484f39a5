#include "sim/lossy_medium.hpp"

#include "proto/messages.hpp"

namespace qolsr {

namespace {
/// Domain-separates the loss stream from the node RNGs and the fault
/// (victim-drawing) stream, all of which derive from the same run seed.
constexpr std::uint64_t kLossStreamSalt = 0xa5a5a5a5a5a5a5a5ULL;
/// The wire-corruption stream: its own domain, so turning corruption on
/// never perturbs the loss draws (and vice versa).
constexpr std::uint64_t kCorruptStreamSalt = 0x6a09e667f3bcc909ULL;
}  // namespace

void LossyMedium::reset(const FaultPlan* plan, std::uint64_t seed,
                        double corrupt_rate, std::size_t node_count) {
  plan_ = plan;
  rng_ = util::Rng(seed ^ kLossStreamSalt);
  corrupt_rng_ = util::Rng(seed ^ kCorruptStreamSalt);
  corrupt_rate_ = corrupt_rate;
  partition_half_ = static_cast<NodeId>(node_count / 2);
  node_down_.assign(node_count, 0);
  down_nodes_ = 0;
  down_links_.clear();
  link_loss_.clear();
  partitions_ = 0;
  ambient_loss_ = false;
  if (plan_ != nullptr) {
    ambient_loss_ = plan_->loss_rate > 0.0;
    for (const LinkLossSpec& l : plan_->link_loss) {
      link_loss_[link_key(l.u, l.v)] = l.rate;
      ambient_loss_ = ambient_loss_ || l.rate > 0.0;
    }
  }
}

void LossyMedium::set_link_down(NodeId u, NodeId v, bool down) {
  if (down) {
    down_links_.insert(link_key(u, v));
  } else {
    down_links_.erase(link_key(u, v));
  }
}

void LossyMedium::set_node_down(NodeId id, bool down) {
  if (id >= node_down_.size()) node_down_.resize(id + 1, 0);
  if (node_down_[id] == static_cast<char>(down ? 1 : 0)) return;
  node_down_[id] = down ? 1 : 0;
  down_nodes_ += down ? 1 : -1;
}

bool LossyMedium::blocked(NodeId from, NodeId to) const {
  if (node_down(from) || node_down(to)) return true;
  if (!down_links_.empty() && link_down(from, to)) return true;
  return partitions_ > 0 &&
         (from < partition_half_) != (to < partition_half_);
}

bool LossyMedium::lost(NodeId from, NodeId to) {
  if (!ambient_loss_) return false;
  double rate = plan_ != nullptr ? plan_->loss_rate : 0.0;
  if (!link_loss_.empty()) {
    const auto it = link_loss_.find(link_key(from, to));
    if (it != link_loss_.end()) rate = it->second;
  }
  if (rate <= 0.0) return false;
  return rate >= 1.0 || rng_.uniform01() < rate;
}

bool LossyMedium::passes(NodeId from, NodeId to) {
  if (!impaired()) return true;
  if (blocked(from, to)) {
    trace_->frames_blocked += 1;
    return false;
  }
  if (lost(from, to)) {
    trace_->frames_lost += 1;
    return false;
  }
  return true;
}

SharedBytes LossyMedium::maybe_corrupt(const SharedBytes& bytes) {
  if (corrupt_rate_ <= 0.0 || bytes->empty() ||
      corrupt_rng_.uniform01() >= corrupt_rate_)
    return bytes;
  // The shared buffer may still be in flight to other receivers — corrupt
  // a private copy, never the original.
  std::vector<std::byte> flipped(*bytes);
  const std::size_t bit_count = flipped.size() * 8;
  const std::uint64_t flips = 1 + corrupt_rng_.uniform_int(3);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::uint64_t bit = corrupt_rng_.uniform_int(bit_count);
    flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
  trace_->frames_corrupted += 1;
  if (is_data_frame(*bytes)) {
    // Charge the journey from the pre-flip payload id (the flip may have
    // landed in that very field). Only read when the probe never arrives.
    const auto it = trace_->journeys.find(peek_data_payload_id(*bytes));
    if (it != trace_->journeys.end() &&
        it->second.drop == TraceStats::Journey::Drop::kNone)
      it->second.drop = TraceStats::Journey::Drop::kMalformed;
  }
  return make_shared_bytes(std::move(flipped));
}

}  // namespace qolsr
