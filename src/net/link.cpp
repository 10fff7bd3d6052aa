#include "net/link.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace tlbsim::net {

void Link::installObs(obs::MetricsRegistry& metrics, obs::EventTrace* trace,
                      const std::string& label) {
  obsTx_ = &metrics.counter("port." + label + ".tx_packets");
  obsDrops_ = &metrics.counter("port." + label + ".drops");
  obsMarks_ = &metrics.counter("port." + label + ".ecn_marks");
  obsFaultDrops_ = &metrics.counter("port." + label + ".fault_drops");
  trace_ = trace;
  if (trace_ != nullptr) {
    traceLabel_ = trace_->intern(label);
    traceTid_ = trace_->newTrack(traceLabel_);
  }
}

void Link::noteFaultDrop(const Packet& pkt) {
  if (obsFaultDrops_ != nullptr) obsFaultDrops_->inc();
  if (trace_ != nullptr) {
    trace_->instant("net", "fault_drop", sim_.now(),
                    {{"flow", static_cast<double>(pkt.flow)},
                     {"seq", static_cast<double>(pkt.seq)},
                     {"size", static_cast<double>(pkt.size.bytes())}},
                    traceTid_);
  }
}

bool Link::transmitting() const {
  return !sim_.scheduler().passed(busyUntil_, txEndSeq_);
}

void Link::faultMidSerialization() {
  if (!transmitting()) return;
  // The packet's fate may differ at transmit end from what transmit start
  // decided, so settle it there.
  txSettle_ = true;
  postTransmitEnd();
}

void Link::faultDown(bool drainInFlight) {
  if (!up_) return;
  up_ = false;
  drainInFlight_ = drainInFlight;
  // In drop mode, everything already on the wire dies: deliveries carry
  // the epoch they left the transmitter under and are discarded on
  // mismatch. A packet still serializing dies at transmit end if the link
  // is still down then.
  if (!drainInFlight_) ++wireEpoch_;
  faultMidSerialization();
  // The queue behind a dead port empties — those packets are fault losses,
  // not queue-overflow drops, and observers that meter dequeues (stats,
  // load estimators) must not see them leave.
  SimTime queueDelay;
  while (!queue_.empty()) {
    const Packet pkt = queue_.dequeue(sim_.now(), &queueDelay);
    ++faultFlushedPackets_;
    noteFaultDrop(pkt);
  }
}

void Link::faultUp() {
  if (up_) return;
  up_ = true;
  drainInFlight_ = false;
  faultMidSerialization();
  if (!transmitting() && !queue_.empty()) startTransmission();
}

void Link::faultSetRateFactor(double factor) {
  TLBSIM_ASSERT(factor > 0.0, "rate factor must be positive, got %f", factor);
  // The serializing packet keeps the transmit end it started with.
  rateFactor_ = factor;
}

void Link::faultSetDelayFactor(double factor) {
  TLBSIM_ASSERT(factor > 0.0, "delay factor must be positive, got %f", factor);
  delayFactor_ = factor;
  faultMidSerialization();
}

void Link::faultSetDropProb(double prob, std::uint64_t seed) {
  TLBSIM_ASSERT(prob >= 0.0 && prob <= 1.0,
                "drop probability must be in [0, 1], got %f", prob);
  dropProb_ = prob;
  faultRng_.reseed(seed);
  // A packet on the transmitter takes the reseeded RNG's first draw, as a
  // draw at its transmit end would (nothing else draws in between).
  if (transmitting()) {
    txGrayDrop_ = dropProb_ > 0.0 && faultRng_.uniform() < dropProb_;
  }
  faultMidSerialization();
}

void Link::send(Packet pkt) {
  if (!up_) {  // dead port: the packet vanishes, accounted as a fault loss
    ++faultRejectedPackets_;
    noteFaultDrop(pkt);
    return;
  }
  const std::uint64_t marksBefore = queue_.ecnMarks();
  if (!queue_.enqueue(pkt, sim_.now())) {  // drop-tail
    if (obsDrops_ != nullptr) obsDrops_->inc();
    if (trace_ != nullptr) {
      trace_->instant("net", "drop", sim_.now(),
                      {{"flow", static_cast<double>(pkt.flow)},
                       {"seq", static_cast<double>(pkt.seq)},
                       {"size", static_cast<double>(pkt.size.bytes())}},
                      traceTid_);
    }
    return;
  }
  ++enqueuedPackets_;
  enqueuedBytes_ += pkt.size;
  if (queue_.ecnMarks() != marksBefore) {
    if (obsMarks_ != nullptr) obsMarks_->inc();
    if (trace_ != nullptr) {
      trace_->instant("net", "ecn_mark", sim_.now(),
                      {{"flow", static_cast<double>(pkt.flow)},
                       {"queue_pkts", static_cast<double>(queue_.packets())}},
                      traceTid_);
    }
  }
  // A packet now waits behind a busy transmitter: it needs the transmit
  // end as an event.
  if (transmitting()) {
    postTransmitEnd();
  } else {
    startTransmission();
  }
}

void Link::startTransmission() {
  TLBSIM_DCHECK(!queue_.empty(), "transmission started on an empty queue");
  SimTime queueDelay;
  const Packet pkt = queue_.dequeue(sim_.now(), &queueDelay);
  for (const auto& hook : dequeueHooks_) hook(pkt, queueDelay);
  const SimTime txTime = effectiveRate().transmissionTime(pkt.size);
  busyTime_ += txTime;
  ++txPackets_;
  txBytes_ += pkt.size;
  if (obsTx_ != nullptr) obsTx_->inc();
  if (trace_ != nullptr) {
    // One span per serialization on this link's track; the packet type is
    // visible via the name, the identity via args.
    trace_->complete("net", toString(pkt.type), sim_.now(), txTime,
                     {{"flow", static_cast<double>(pkt.flow)},
                      {"seq", static_cast<double>(pkt.seq)},
                      {"qdelay_us", toMicroseconds(queueDelay)}},
                     traceTid_);
  }
  busyUntil_ = sim_.now() + txTime;
  txEndPosted_ = false;
  // Gray loss is drawn per packet in transmission order, so the per-link
  // draw sequence is the same whether it is drawn here or at transmit end.
  txGrayDrop_ = dropProb_ > 0.0 && faultRng_.uniform() < dropProb_;
  txSlot_ = wireAlloc(pkt);
  // A gray-dropped packet is counted lost at transmit end, and a sinkless
  // link counts its packets delivered there; every other packet's
  // delivery follows the transmit-end key, as its first post.
  txSettle_ = txGrayDrop_ || peer_ == nullptr;
  if (txSettle_) {
    txEndSeq_ = sim_.scheduler().reserveKey(busyUntil_);
    postTransmitEnd();
  } else {
    txEndSeq_ = sim_.scheduler().reserveKeyWithFollower(
        busyUntil_, busyUntil_ + effectiveDelay(),
        [this, slot = txSlot_, gen = wire_[txSlot_].gen] {
          deliver(slot, gen);
        });
  }
  if (!queue_.empty()) postTransmitEnd();
}

void Link::postTransmitEnd() {
  if (txEndPosted_) return;
  txEndPosted_ = true;
  sim_.scheduler().postReserved(busyUntil_, txEndSeq_,
                                [this] { onTransmitEnd(); });
}

void Link::onTransmitEnd() {
  if (txSettle_) settleAtTransmitEnd();
  if (up_ && !queue_.empty()) startTransmission();
}

void Link::settleAtTransmitEnd() {
  txSettle_ = false;
  // The same rules a transmit-complete event applied: a drop-mode down
  // still in force kills, and the delivery leaves under the current delay
  // and wire epoch.
  WireSlot& slot = wire_[txSlot_];
  if (peer_ == nullptr) {
    wireFree(txSlot_);
    ++deliveredPackets_;  // sinkless link: nothing left in flight
  } else if ((!up_ && !drainInFlight_) || txGrayDrop_) {
    const Packet pkt = slot.pkt;
    wireFree(txSlot_);
    ++faultWireDrops_;
    noteFaultDrop(pkt);
  } else {
    ++slot.gen;  // supersedes the delivery posted at transmit start
    slot.epoch = wireEpoch_;
    sim_.post(effectiveDelay(), [this, idx = txSlot_, gen = slot.gen] {
      deliver(idx, gen);
    });
  }
}

std::uint32_t Link::wireAlloc(const Packet& pkt) {
  std::uint32_t idx;
  if (wireFreeHead_ != kNoWireSlot) {
    idx = wireFreeHead_;
    wireFreeHead_ = wire_[idx].nextFree;
  } else {
    wire_.emplace_back();
    idx = static_cast<std::uint32_t>(wire_.size() - 1);
  }
  wire_[idx].pkt = pkt;
  wire_[idx].epoch = wireEpoch_;
  ++wireLive_;
  return idx;
}

void Link::wireFree(std::uint32_t slot) {
  ++wire_[slot].gen;
  wire_[slot].nextFree = wireFreeHead_;
  wireFreeHead_ = slot;
  --wireLive_;
}

void Link::deliver(std::uint32_t wireSlot, std::uint32_t gen) {
  const WireSlot& slot = wire_[wireSlot];
  if (slot.gen != gen) return;  // superseded at transmit end
  const Packet pkt = slot.pkt;
  const bool killed = slot.epoch != wireEpoch_;
  wireFree(wireSlot);
  if (killed) {
    ++faultWireDrops_;
    noteFaultDrop(pkt);
    return;
  }
  ++deliveredPackets_;
  peer_->receive(pkt, peerPort_);
}

}  // namespace tlbsim::net
