#include "metrics/events.h"

namespace hsw::metrics {

std::string_view to_string(MCtr c) {
  switch (c) {
    case MCtr::kL1VictimDirty: return "CBO_L1_VICTIM_M_WRITEBACK";
    case MCtr::kL1VictimCleanSilent: return "CBO_L1_VICTIM_CLEAN_SILENT";
    case MCtr::kL2VictimDirty: return "CBO_L2_VICTIM_M_WRITEBACK";
    case MCtr::kL2VictimCleanSilent: return "CBO_L2_VICTIM_CLEAN_SILENT";
    case MCtr::kL3VictimDirty: return "CBO_LLC_VICTIM_M_WRITEBACK";
    case MCtr::kL3VictimCleanSilent: return "CBO_LLC_VICTIM_CLEAN_SILENT";
    case MCtr::kSadLocalHome: return "SAD_REQ_LOCAL_HOME";
    case MCtr::kSadRemoteHome: return "SAD_REQ_REMOTE_HOME";
    case MCtr::kHaSnoopAllBroadcast: return "HA_SNOOP_ALL_BCAST";
    case MCtr::kHaStaleBroadcast: return "HA_DIRECTORY_STALE_BCAST";
    case MCtr::kHaBypass: return "HA_SNOOP_BYPASS";
    case MCtr::kImcPageHit: return "IMC_PAGE_HIT";
    case MCtr::kImcPageEmpty: return "IMC_PAGE_EMPTY";
    case MCtr::kImcPageConflict: return "IMC_PAGE_CONFLICT";
    case MCtr::kCount: break;
  }
  return "?";
}

std::string_view to_string(MGauge g) {
  switch (g) {
    case MGauge::kL1OccModified: return "CBO_L1_OCC_M";
    case MGauge::kL1OccExclusive: return "CBO_L1_OCC_E";
    case MGauge::kL1OccShared: return "CBO_L1_OCC_S";
    case MGauge::kL1OccForward: return "CBO_L1_OCC_F";
    case MGauge::kL1OccOwned: return "CBO_L1_OCC_O";
    case MGauge::kL2OccModified: return "CBO_L2_OCC_M";
    case MGauge::kL2OccExclusive: return "CBO_L2_OCC_E";
    case MGauge::kL2OccShared: return "CBO_L2_OCC_S";
    case MGauge::kL2OccForward: return "CBO_L2_OCC_F";
    case MGauge::kL2OccOwned: return "CBO_L2_OCC_O";
    case MGauge::kL3OccModified: return "CBO_LLC_OCC_M";
    case MGauge::kL3OccExclusive: return "CBO_LLC_OCC_E";
    case MGauge::kL3OccShared: return "CBO_LLC_OCC_S";
    case MGauge::kL3OccForward: return "CBO_LLC_OCC_F";
    case MGauge::kL3OccOwned: return "CBO_LLC_OCC_O";
    case MGauge::kL3CoreValidBits: return "CBO_LLC_CORE_VALID_BITS";
    case MGauge::kHitmeEntries: return "HA_HITME_ENTRIES";
    case MGauge::kDirectoryTracked: return "HA_DIRECTORY_TRACKED_LINES";
    case MGauge::kCount: break;
  }
  return "?";
}

std::string_view to_string(MMeter m) {
  switch (m) {
    case MMeter::kRingHops: return "RING_HOPS";
    case MMeter::kCount: break;
  }
  return "?";
}

std::string_view to_string(MHist h) {
  switch (h) {
    case MHist::kAccessNs: return "ACCESS_LATENCY_NS";
    case MHist::kCount: break;
  }
  return "?";
}

std::string_view to_string(MFamily f) {
  switch (f) {
    case MFamily::kQpiLinkCrossings: return "QPI_LINK_CROSSINGS";
    case MFamily::kQpiLinkBytes: return "QPI_LINK_BYTES";
    case MFamily::kImcChannelReadBytes: return "IMC_CHANNEL_READ_BYTES";
    case MFamily::kImcChannelWriteBytes: return "IMC_CHANNEL_WRITE_BYTES";
    case MFamily::kRingStopCbo: return "RING_STOP_CBO_REQUESTS";
    case MFamily::kRingStopHa: return "RING_STOP_HA_REQUESTS";
    case MFamily::kCount: break;
  }
  return "?";
}

}  // namespace hsw::metrics
