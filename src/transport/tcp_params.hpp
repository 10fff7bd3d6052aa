// Transport configuration shared by senders and receivers.
#pragma once

#include "net/packet.hpp"
#include "util/flow_key.hpp"
#include "util/units.hpp"

namespace tlbsim::transport {

struct TcpParams {
  ByteCount mss = 1460_B;        ///< payload bytes per full segment
  ByteCount headerBytes = 40_B;  ///< TCP/IP header overhead per packet

  int initialCwndSegments = 2;  ///< paper Eq. (3): slow start sends 2,4,8,...
  /// Receiver-window cap; the paper's W_L (64 KB default in Linux).
  ByteCount receiverWindow = 64 * kKiB;

  int dupAckThreshold = 3;

  SimTime minRto = milliseconds(10);
  SimTime maxRto = milliseconds(200);
  SimTime initialRtt = microseconds(100);

  // --- DCTCP ----------------------------------------------------------
  bool enableEcn = true;
  double dctcpG = 1.0 / 16.0;  ///< alpha EWMA gain

  // --- delayed ACKs -----------------------------------------------------
  /// Coalesce cumulative ACKs: at most one ACK per `delayedAckEvery`
  /// in-order segments, flushed early by the timeout, by out-of-order
  /// arrival, or by a change of the CE bit (the DCTCP receiver rule that
  /// keeps the marking-fraction estimate exact under coalescing).
  /// 1 = ACK every segment (default; simplest and what the paper's
  /// dup-ACK metrics assume).
  int delayedAckEvery = 1;
  SimTime delayedAckTimeout = microseconds(500);

  /// Rate-limit NewReno hole retransmissions to one per SRTT. Genuine
  /// loss recovery is unaffected (real partial acks arrive one per round
  /// trip); what this prevents is the self-sustaining retransmission storm
  /// a *spurious* fast retransmit ignites under packet reordering (each
  /// unneeded retransmit elicits another dup-ACK). Classic NS2-era TCP —
  /// the stack the paper evaluated against — has no such guard; disable
  /// to reproduce its much harsher reordering penalties.
  bool holeRetransmitGuard = true;

  ByteCount maxSegmentWireSize() const { return mss + headerBytes; }
};

/// Reporting boundary between short and long flows (paper: short < 100 KB).
/// Ledger queries, the harness classifiers and workload deadlines use it.
inline constexpr ByteCount kShortFlowThreshold = 100 * kKB;

/// A flow to be transferred: the unit of workload generation.
struct FlowSpec {
  FlowId id = kInvalidFlow;
  net::HostId src = -1;
  net::HostId dst = -1;
  ByteCount size;        ///< application bytes to deliver
  SimTime start;     ///< absolute start time
  SimTime deadline;  ///< FCT budget (relative); 0 = no deadline
};

}  // namespace tlbsim::transport
