#include "transport/tcp_receiver.hpp"

#include <algorithm>

#include "obs/flow_probe.hpp"

namespace tlbsim::transport {

TcpReceiver::TcpReceiver(sim::Simulator& simr, net::Host& localHost,
                         const FlowSpec& flow, const TcpParams& params)
    : sim_(simr), host_(localHost), flow_(flow), params_(params) {
  host_.bind(flow_.id, this);
}

net::Packet TcpReceiver::makeControl(net::PacketType type) const {
  net::Packet pkt;
  pkt.flow = flow_.id;
  pkt.type = type;
  pkt.src = flow_.dst;  // receiver -> sender direction
  pkt.dst = flow_.src;
  pkt.size = params_.headerBytes;
  pkt.sentAt = sim_.now();
  return pkt;
}

void TcpReceiver::onPacket(const net::Packet& pkt) {
  switch (pkt.type) {
    case net::PacketType::kSyn: {
      net::Packet synAck = makeControl(net::PacketType::kSynAck);
      synAck.echoTs = pkt.sentAt;
      host_.send(synAck);
      break;
    }
    case net::PacketType::kData:
      acceptData(pkt);
      break;
    case net::PacketType::kFin: {
      finSeen_ = true;
      flushPending();  // anything still coalesced goes out first
      host_.send(makeControl(net::PacketType::kFinAck));
      break;
    }
    default:
      break;  // stray SYN-ACK/ACK: not for the receiver side
  }
}

void TcpReceiver::acceptData(const net::Packet& pkt) {
  ++dataPackets_;
  const std::uint64_t start = pkt.seq;
  const std::uint64_t end = pkt.seq + static_cast<std::uint64_t>(pkt.payload.bytes());
  bool inOrder = false;

  if (start > cumAck_) {
    // Hole before this segment: buffer it.
    ++outOfOrder_;
    if (flowProbe_ != nullptr) flowProbe_->onOutOfOrder(flow_.id, sim_.now());
    bufferRange(start, end);
  } else if (end > cumAck_) {
    inOrder = true;
    cumAck_ = end;
    // Drain any buffered segments now contiguous.
    auto it = segments_.begin();
    while (it != segments_.end() && it->first <= cumAck_) {
      cumAck_ = std::max(cumAck_, it->second);
      ++it;
    }
    segments_.erase(segments_.begin(), it);
  }
  // else: fully duplicate segment (spurious retransmit); still ACK it.

  ackPolicy(pkt, inOrder);
}

void TcpReceiver::bufferRange(std::uint64_t start, std::uint64_t end) {
  // The first range that can meet [start, end): the predecessor if it
  // reaches start, else the first range starting at or after start.
  auto it = std::lower_bound(
      segments_.begin(), segments_.end(), start,
      [](const ByteRange& r, std::uint64_t s) { return r.first < s; });
  if (it != segments_.begin() && std::prev(it)->second >= start) --it;
  if (it == segments_.end() || it->first > end) {
    segments_.insert(it, ByteRange{start, end});
    return;
  }
  it->first = std::min(it->first, start);
  it->second = std::max(it->second, end);
  auto next = std::next(it);
  while (next != segments_.end() && next->first <= it->second) {
    it->second = std::max(it->second, next->second);
    ++next;
  }
  segments_.erase(std::next(it), next);
}

void TcpReceiver::ackPolicy(const net::Packet& pkt, bool inOrder) {
  if (params_.delayedAckEvery <= 1) {
    sendAck(pkt.sentAt, pkt.ce);
    return;
  }
  // Immediate flush cases: out-of-order/duplicate arrival (dup-ACKs must
  // reach the sender promptly) and a CE-bit change (DCTCP's rule: never
  // blur marked and unmarked segments into one ACK).
  if (!inOrder) {
    flushPending();
    sendAck(pkt.sentAt, pkt.ce);
    return;
  }
  if (pendingSegments_ > 0 && pkt.ce != pendingCe_) {
    flushPending();
  }
  pendingCe_ = pkt.ce;
  pendingEchoTs_ = pkt.sentAt;
  ++pendingSegments_;
  if (pendingSegments_ >= params_.delayedAckEvery) {
    flushPending();
    return;
  }
  if (!ackTimer_.pending()) {
    // Inside the timer's own callback the handle is already inert, so
    // flushPending() below cancels nothing and re-arming works.
    ackTimer_ =
        sim_.schedule(params_.delayedAckTimeout, [this] { flushPending(); });
  }
}

void TcpReceiver::flushPending() {
  if (pendingSegments_ == 0) return;
  const SimTime echo = pendingEchoTs_;
  const bool ece = pendingCe_;
  pendingSegments_ = 0;
  ackTimer_.cancel();
  sendAck(echo, ece);
}

void TcpReceiver::sendAck(SimTime echoTs, bool ece) {
  net::Packet ack = makeControl(net::PacketType::kAck);
  ack.ack = cumAck_;
  ack.ece = ece;  // per-packet CE echo (DCTCP style)
  ack.echoTs = echoTs;
  ++acksSent_;
  if (sentFirstAck_ && ack.ack == lastAckNo_) ++dupAcks_;
  sentFirstAck_ = true;
  lastAckNo_ = ack.ack;
  host_.send(ack);
}

}  // namespace tlbsim::transport
