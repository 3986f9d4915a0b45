/**
 * @file
 * Calibration constants of the McPAT-style power/area model, with
 * the paper-reported targets they are tuned against:
 *
 * - per-core peak power across the 4680 design points spans roughly
 *   4.8 W to 23.4 W; per-core area (with private caches and the
 *   core's shared-L2 slice) spans roughly 9.4 mm^2 to 28.6 mm^2
 *   (Section VI);
 * - dropping the SIMD units saves about 7.4% peak power and 17.3%
 *   area on an otherwise-identical core (Section III);
 * - doubling register width costs up to ~6.4% peak power across
 *   register-depth organizations (Section III);
 * - the backend (ROB, physical register file) scales partially with
 *   ISA register depth even under renaming (Section III).
 *
 * All values are for a ~22 nm process at 3 GHz.
 */

#ifndef CISA_POWER_CALIB_HH
#define CISA_POWER_CALIB_HH

namespace cisa
{
namespace power_calib
{

/** Core clock (Hz); shared by all design points. */
constexpr double kFreqHz = 3.0e9;

/** Leakage as a fraction of structural peak power. */
constexpr double kLeakageFraction = 0.25;

/** Draw of an idle (unoccupied) datacenter tile, in percent of its
 * structural peak power; the datacenter simulator's idle energy. */
constexpr double kIdlePowerPct = 10;

// ---- Area (mm^2) ----
constexpr double kL1Per32KArea = 0.50;
constexpr double kL2PerMbArea = 5.6;
constexpr double kBpredSimpleArea = 0.11;
constexpr double kBpredTournArea = 0.26;
constexpr double kUopCacheArea = 0.24;
constexpr double kRenamePerWidthArea = 0.09;
constexpr double kIqPerEntryArea = 0.0045;
constexpr double kRobPerEntryArea = 0.0020;
constexpr double kPrfPerEntry64bArea = 0.0011;
constexpr double kArchStatePerRegArea = 0.0045;
constexpr double kIntAluArea = 0.16;
constexpr double kIntMulArea = 0.24;
constexpr double kFpPipeArea = 0.46;
constexpr double kSimdPerPipeArea = 1.35;
constexpr double kLsqPerEntryArea = 0.0060;
constexpr double kCoreOverheadArea = 1.7;

// ---- Peak power (W) ----
constexpr double kL1Per32KPower = 0.30;
constexpr double kL2PerMbPower = 0.85;
constexpr double kBpredSimplePower = 0.10;
constexpr double kBpredTournPower = 0.38;
constexpr double kUopCachePower = 0.50;
constexpr double kRenamePerWidthPower = 0.55;
constexpr double kIqPerEntryPower = 0.019;
constexpr double kRobPerEntryPower = 0.0060;
constexpr double kPrfPerEntry64bPower = 0.0036;
constexpr double kArchStatePerRegPower = 0.0035;
constexpr double kIntAluPower = 0.72;
constexpr double kIntMulPower = 0.26;
constexpr double kFpPipePower = 0.80;
constexpr double kSimdPerPipePower = 0.26;
constexpr double kLsqPerEntryPower = 0.0120;
constexpr double kCoreOverheadPower = 0.29;

// ---- Dynamic energy per event (pJ) ----
constexpr double kEL1Access = 25.0;
constexpr double kEL2Access = 95.0;
constexpr double kEMemAccess = 2300.0;
constexpr double kEFetchByte = 0.45;
constexpr double kEIldInstr = 3.2;
constexpr double kEIldExtraPrefix = 0.5;  ///< superset prefixes
constexpr double kEDecodeUop = 4.2;
constexpr double kEMsromUop = 9.5;
constexpr double kEUopCacheLookup = 2.4;
constexpr double kEBpredSimple = 2.0;
constexpr double kEBpredTourn = 3.2;
constexpr double kERenameUop = 2.6;
constexpr double kEIqWrite = 2.1;
constexpr double kEIqIssue = 1.6;
constexpr double kERobWrite = 1.3;
constexpr double kERegRead64 = 1.1;
constexpr double kERegWrite64 = 1.5;
constexpr double kEIntAluOp = 6.0;
constexpr double kEIntMulOp = 13.0;
constexpr double kEIntDivOp = 22.0;
constexpr double kEFpOp = 16.0;
constexpr double kESimdOp = 27.0;
constexpr double kELsqOp = 3.1;

} // namespace power_calib
} // namespace cisa

#endif // CISA_POWER_CALIB_HH
