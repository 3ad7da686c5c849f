#include "mac/control_fields.h"

#include <algorithm>

#include "common/check.h"

#include "common/bitio.h"
#include "phy/phy_params.h"

namespace osumac::mac {

int ControlFields::ActiveGpsCount() const {
  int count = 0;
  for (UserId uid : gps_schedule) {
    if (uid != kNoUser) ++count;
  }
  return count;
}

ControlFieldBlocks SerializeControlFields(const ControlFields& cf) {
  ControlFieldBlocks blocks;
  BitWriter w(blocks.bytes);
  w.Write(cf.cycle, 16);
  w.Write(cf.is_second_set ? 1 : 0, 1);
  w.Write(cf.late_grant.has_value() ? 1 : 0, 1);
  for (UserId uid : cf.gps_schedule) w.Write(uid, kUserIdBits);
  for (UserId uid : cf.reverse_schedule) w.Write(uid, kUserIdBits);
  for (UserId uid : cf.forward_schedule) w.Write(uid, kUserIdBits);
  for (UserId uid : cf.reverse_acks) w.Write(uid, kUserIdBits);
  w.Write(cf.gps_ack_bitmap, 8);
  OSUMAC_CHECK(cf.grant_count >= 0 && cf.grant_count <= kMaxRegistrationGrants);
  w.Write(static_cast<std::uint64_t>(cf.grant_count), 2);
  for (const RegistrationGrant& g : cf.grants) {
    w.Write(g.ein, kEinBits);
    w.Write(g.user_id, kUserIdBits);
  }
  w.Write(cf.late_ack, kUserIdBits);
  if (cf.late_grant.has_value()) {
    w.Write(cf.late_grant->ein, kEinBits);
    w.Write(cf.late_grant->user_id, kUserIdBits);
  } else {
    w.WriteZeros(kEinBits + kUserIdBits);
  }
  OSUMAC_CHECK(cf.paged_count >= 0 && cf.paged_count <= kMaxPagedUsers);
  w.Write(static_cast<std::uint64_t>(cf.paged_count), 4);
  for (Ein ein : cf.paging) w.Write(ein, kEinBits);
  w.WriteZeros(14);  // reserved pad to the paper's 630-bit total
  OSUMAC_CHECK_EQ(w.bit_size(), kControlFieldBits);
  w.WriteZeros(kControlFieldReservedBits);  // reserved bits of the 2 codewords
  OSUMAC_CHECK_EQ(w.bit_size(), 2 * phy::kRsInfoBits);
  return blocks;
}

namespace {

std::optional<ControlFields> Parse(const ControlFieldBlocks& blocks) {
  BitReader r(blocks.bytes);

  ControlFields cf;
  cf.cycle = static_cast<std::uint16_t>(r.Read(16));
  cf.is_second_set = r.Read(1) != 0;
  const bool has_late_grant = r.Read(1) != 0;
  for (UserId& uid : cf.gps_schedule) uid = static_cast<UserId>(r.Read(kUserIdBits));
  for (UserId& uid : cf.reverse_schedule) uid = static_cast<UserId>(r.Read(kUserIdBits));
  for (UserId& uid : cf.forward_schedule) uid = static_cast<UserId>(r.Read(kUserIdBits));
  for (UserId& uid : cf.reverse_acks) uid = static_cast<UserId>(r.Read(kUserIdBits));
  cf.gps_ack_bitmap = static_cast<std::uint8_t>(r.Read(8));
  cf.grant_count = static_cast<int>(r.Read(2));
  if (cf.grant_count > kMaxRegistrationGrants) return std::nullopt;
  for (RegistrationGrant& g : cf.grants) {
    g.ein = static_cast<Ein>(r.Read(kEinBits));
    g.user_id = static_cast<UserId>(r.Read(kUserIdBits));
  }
  cf.late_ack = static_cast<UserId>(r.Read(kUserIdBits));
  RegistrationGrant late;
  late.ein = static_cast<Ein>(r.Read(kEinBits));
  late.user_id = static_cast<UserId>(r.Read(kUserIdBits));
  if (has_late_grant) cf.late_grant = late;
  cf.paged_count = static_cast<int>(r.Read(4));
  if (cf.paged_count > kMaxPagedUsers) return std::nullopt;
  for (Ein& ein : cf.paging) ein = static_cast<Ein>(r.Read(kEinBits));
  r.Skip(14);
  if (r.overflowed()) return std::nullopt;
  return cf;
}

}  // namespace

std::optional<ControlFields> ParseControlFields(std::span<const fec::GfElem> block0,
                                                std::span<const fec::GfElem> block1) {
  if (static_cast<int>(block0.size()) != phy::kRsInfoBytes ||
      static_cast<int>(block1.size()) != phy::kRsInfoBytes) {
    return std::nullopt;
  }
  ControlFieldBlocks blocks;
  std::copy(block0.begin(), block0.end(), blocks.bytes.begin());
  std::copy(block1.begin(), block1.end(), blocks.bytes.begin() + phy::kRsInfoBytes);
  return Parse(blocks);
}

std::optional<ControlFields> MiscorrectedControlFields(const ControlFields& sent,
                                                       std::span<const fec::GfElem> residual) {
  ControlFieldBlocks blocks = SerializeControlFields(sent);
  OSUMAC_CHECK_EQ(residual.size(), blocks.bytes.size());
  for (std::size_t i = 0; i < residual.size(); ++i) blocks.bytes[i] ^= residual[i];
  return Parse(blocks);
}

const ControlFields* ReceiveControlFields(const ControlFields& sent,
                                          const fec::ReedSolomon& code,
                                          phy::SymbolErrorModel& model,
                                          phy::ChannelScratch& scratch,
                                          bool use_erasure_side_info,
                                          std::optional<ControlFields>& own) {
  std::array<fec::GfElem, 2 * phy::kRsInfoBytes> residual;
  bool miscorrected = false;
  for (std::size_t w = 0; w < 2; ++w) {
    const phy::WordFate fate = phy::ReceiveWord(
        code, model, scratch,
        std::span(residual).subspan(w * phy::kRsInfoBytes, phy::kRsInfoBytes), nullptr,
        use_erasure_side_info);
    if (fate == phy::WordFate::kLost) return nullptr;
    miscorrected |= fate == phy::WordFate::kMiscorrected;
  }
  if (!miscorrected) return &sent;
  own = MiscorrectedControlFields(sent, residual);
  return own.has_value() ? &*own : nullptr;
}

}  // namespace osumac::mac
