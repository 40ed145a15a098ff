//! Time handling for the field study.
//!
//! The study spans 518 production days; log lines carry wall-clock
//! timestamps. We represent instants as seconds since the Unix epoch
//! ([`Timestamp`]) and spans as signed seconds ([`SimDuration`]), and provide
//! civil-date formatting/parsing (`YYYY-MM-DD HH:MM:SS`) without pulling in
//! an external time crate — the proleptic-Gregorian conversions below are the
//! classic *days-from-civil* / *civil-from-days* algorithms.
//!
//! **Logical clock contract:** [`Timestamp`] values only ever come from the
//! data (parsed log lines) or from arithmetic on such values — never from
//! the host clock. This module is inside the `checkpoint-state-clock`
//! guard of `logdiver lint`: a `SystemTime`/`Instant` appearing here (or in
//! any checkpointable state) breaks resume determinism and fails CI.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::TypesError;

/// An instant in time: seconds since the Unix epoch (UTC).
///
/// ```
/// use logdiver_types::Timestamp;
/// let t = Timestamp::from_ymd_hms(2013, 3, 28, 0, 0, 0);
/// assert_eq!(t.to_string(), "2013-03-28 00:00:00");
/// let u: Timestamp = "2013-03-28 00:00:00".parse()?;
/// assert_eq!(t, u);
/// # Ok::<(), logdiver_types::TypesError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(i64);

/// A span of time in seconds. May be negative (difference of two instants).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(i64);

crate::codec_struct!(Timestamp { 0 });
crate::codec_struct!(SimDuration { 0 });

/// Days from civil date, proleptic Gregorian calendar.
///
/// Returns the number of days since 1970-01-01. Valid for the whole i32 year
/// range we care about.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date from days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl Timestamp {
    /// The conventional start of the measured production period
    /// (Blue Waters entered full production in late March 2013).
    pub const PRODUCTION_EPOCH: Timestamp = Timestamp(1_364_342_400); // 2013-03-27 00:00:00 UTC

    /// Creates a timestamp from raw seconds since the Unix epoch.
    pub const fn from_unix(secs: i64) -> Self {
        Timestamp(secs)
    }

    /// Returns seconds since the Unix epoch.
    pub const fn as_unix(self) -> i64 {
        self.0
    }

    /// Builds a timestamp from a civil date and time of day (UTC).
    ///
    /// # Panics
    ///
    /// Panics if `month`, `day`, `hour`, `min` or `sec` are out of range.
    pub fn from_ymd_hms(year: i64, month: u32, day: u32, hour: u32, min: u32, sec: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        assert!(
            hour < 24 && min < 60 && sec < 60,
            "time of day out of range"
        );
        let days = days_from_civil(year, month, day);
        Timestamp(days * 86_400 + hour as i64 * 3_600 + min as i64 * 60 + sec as i64)
    }

    /// Decomposes the timestamp into `(year, month, day, hour, min, sec)` UTC.
    pub fn to_ymd_hms(self) -> (i64, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(86_400);
        let secs = self.0.rem_euclid(86_400);
        let (y, m, d) = civil_from_days(days);
        (
            y,
            m,
            d,
            (secs / 3_600) as u32,
            ((secs % 3_600) / 60) as u32,
            (secs % 60) as u32,
        )
    }

    /// Number of whole days since [`Timestamp::PRODUCTION_EPOCH`].
    ///
    /// Negative before production start.
    pub fn production_day(self) -> i64 {
        (self.0 - Self::PRODUCTION_EPOCH.0).div_euclid(86_400)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> Self {
        Timestamp(self.0.saturating_add(d.0))
    }

    /// Parses `YYYY-MM-DD HH:MM:SS` directly from bytes.
    ///
    /// Accepts exactly the same inputs as the [`FromStr`] grammar (the
    /// canonical fixed-width form takes a branch-light fast path; anything
    /// else — leading `+`, extra zeros, variable widths — falls back to
    /// the loose parser), but never allocates and never inspects the
    /// input as UTF-8 on the fast path.
    pub fn parse_bytes(b: &[u8]) -> Option<Timestamp> {
        LazyTimestamp::validate(b).map(LazyTimestamp::decode)
    }

    /// Absolute difference between two instants.
    pub fn abs_diff(self, other: Timestamp) -> SimDuration {
        SimDuration((self.0 - other.0).abs())
    }
}

/// A timestamp whose bytes have been *validated* but whose epoch value may
/// not have been computed yet.
///
/// The zero-copy parsers validate the timestamp field eagerly (a record
/// with a torn or garbage timestamp must be rejected up front, before any
/// other field is trusted) but defer the civil-date → epoch arithmetic
/// until the record is known to survive downstream validation. For the
/// canonical fixed-width form this stores the six decoded fields; inputs
/// that only the loose [`FromStr`] grammar accepts (leading `+`, extra
/// zeros, variable widths) are decoded eagerly on the slow path so both
/// representations agree with `str::parse::<Timestamp>` byte-for-byte.
///
/// This is a transient parse-time value: it deliberately implements
/// neither `PartialEq` nor serde, so it cannot leak into checkpointable
/// state — compare or store [`LazyTimestamp::decode`] results instead.
#[derive(Debug, Clone, Copy)]
pub enum LazyTimestamp {
    /// Canonical `YYYY-MM-DD HH:MM:SS`: fields range-checked, epoch
    /// arithmetic deferred.
    Fields {
        /// Four-digit year.
        year: u16,
        /// Month, `1..=12`.
        month: u8,
        /// Day of month, `1..=31`.
        day: u8,
        /// Hour, `0..24`.
        hour: u8,
        /// Minute, `0..60`.
        min: u8,
        /// Second, `0..60`.
        sec: u8,
    },
    /// A non-canonical form the loose grammar accepts; decoded eagerly.
    Decoded(Timestamp),
}

impl LazyTimestamp {
    /// Validates timestamp bytes without computing the epoch value.
    ///
    /// Returns `None` exactly when `str::parse::<Timestamp>` would fail on
    /// the same (UTF-8) bytes.
    pub fn validate(b: &[u8]) -> Option<LazyTimestamp> {
        if let Some(t) = canonical_fields(b) {
            return Some(t);
        }
        // Slow path: whatever the loose split-based grammar accepts
        // (`+2013-3-28 1:02:3` and friends). Decode now — laziness only
        // pays on the canonical form, which is all real logs emit.
        let s = std::str::from_utf8(b).ok()?;
        s.parse::<Timestamp>().ok().map(LazyTimestamp::Decoded)
    }

    /// Computes the epoch value (the deferred half of parsing).
    pub fn decode(self) -> Timestamp {
        match self {
            LazyTimestamp::Fields {
                year,
                month,
                day,
                hour,
                min,
                sec,
            } => {
                let days = days_from_civil(year as i64, month as u32, day as u32);
                Timestamp(days * 86_400 + hour as i64 * 3_600 + min as i64 * 60 + sec as i64)
            }
            LazyTimestamp::Decoded(t) => t,
        }
    }
}

/// The canonical fixed-width fast path: exactly 19 bytes, digits and
/// separators at fixed positions, same range checks as the loose grammar.
fn canonical_fields(b: &[u8]) -> Option<LazyTimestamp> {
    if b.len() != 19 {
        return None;
    }
    if b[4] != b'-' || b[7] != b'-' || b[10] != b' ' || b[13] != b':' || b[16] != b':' {
        return None;
    }
    let two = |i: usize| -> Option<u16> {
        let (hi, lo) = (b[i].wrapping_sub(b'0'), b[i + 1].wrapping_sub(b'0'));
        if hi < 10 && lo < 10 {
            Some(hi as u16 * 10 + lo as u16)
        } else {
            None
        }
    };
    let year = two(0)? * 100 + two(2)?;
    let month = two(5)? as u8;
    let day = two(8)? as u8;
    let hour = two(11)? as u8;
    let min = two(14)? as u8;
    let sec = two(17)? as u8;
    if !(1..=12).contains(&month)
        || !(1..=31).contains(&day)
        || hour >= 24
        || min >= 60
        || sec >= 60
    {
        return None;
    }
    Some(LazyTimestamp::Fields {
        year,
        month,
        day,
        hour,
        min,
        sec,
    })
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s) = self.to_ymd_hms();
        write!(f, "{y:04}-{mo:02}-{d:02} {h:02}:{mi:02}:{s:02}")
    }
}

impl FromStr for Timestamp {
    type Err = TypesError;

    /// Parses `YYYY-MM-DD HH:MM:SS` (the format used across our log sources).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || TypesError::BadTimestamp(s.to_string());
        let (date, tod) = s.split_once(' ').ok_or_else(bad)?;
        let mut dit = date.split('-');
        let y: i64 = dit.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mo: u32 = dit.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let d: u32 = dit.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if dit.next().is_some() {
            return Err(bad());
        }
        let mut tit = tod.split(':');
        let h: u32 = tit.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mi: u32 = tit.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let sec: u32 = tit.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if tit.next().is_some() {
            return Err(bad());
        }
        if !(1..=12).contains(&mo) || !(1..=31).contains(&d) || h >= 24 || mi >= 60 || sec >= 60 {
            return Err(bad());
        }
        Ok(Timestamp::from_ymd_hms(y, mo, d, h, mi, sec))
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = SimDuration;
    fn sub(self, rhs: Timestamp) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: i64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: i64) -> Self {
        SimDuration(mins * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: i64) -> Self {
        SimDuration(hours * 3_600)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: i64) -> Self {
        SimDuration(days * 86_400)
    }

    /// Creates a duration from fractional hours, rounding to whole seconds.
    pub fn from_hours_f64(hours: f64) -> Self {
        SimDuration((hours * 3_600.0).round() as i64)
    }

    /// The duration in seconds.
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// The duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 3_600.0
    }

    /// The duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / 86_400.0
    }

    /// True when the duration is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value.
    pub const fn abs(self) -> Self {
        SimDuration(self.0.abs())
    }

    /// Clamps the duration into `[lo, hi]`.
    pub fn clamp(self, lo: SimDuration, hi: SimDuration) -> Self {
        SimDuration(self.0.clamp(lo.0, hi.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.0.abs();
        let sign = if self.0 < 0 { "-" } else { "" };
        let (h, m, s) = (total / 3_600, (total % 3_600) / 60, total % 60);
        write!(f, "{sign}{h:02}:{m:02}:{s:02}")
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_1970() {
        let t = Timestamp::from_ymd_hms(1970, 1, 1, 0, 0, 0);
        assert_eq!(t.as_unix(), 0);
    }

    #[test]
    fn known_date_round_trips() {
        // 2013-03-27 00:00:00 UTC == 1364342400 (production epoch).
        let t = Timestamp::from_ymd_hms(2013, 3, 27, 0, 0, 0);
        assert_eq!(t, Timestamp::PRODUCTION_EPOCH);
        assert_eq!(t.to_ymd_hms(), (2013, 3, 27, 0, 0, 0));
    }

    #[test]
    fn leap_year_handling() {
        let feb29 = Timestamp::from_ymd_hms(2016, 2, 29, 12, 0, 0);
        assert_eq!(feb29.to_ymd_hms(), (2016, 2, 29, 12, 0, 0));
        let mar1 = feb29 + SimDuration::from_hours(12);
        assert_eq!(mar1.to_ymd_hms(), (2016, 3, 1, 0, 0, 0));
    }

    /// Unix-seconds range whose displayed years stay in 0001..=9999 — the
    /// window the four-digit `YYYY-MM-DD HH:MM:SS` format can represent.
    const MIN_FOUR_DIGIT_UNIX: i64 = -62_135_596_800; // 0001-01-01 00:00:00
    const MAX_FOUR_DIGIT_UNIX: i64 = 253_402_300_799; // 9999-12-31 23:59:59

    #[test]
    fn display_and_parse_round_trip_at_boundaries() {
        for secs in [
            MIN_FOUR_DIGIT_UNIX,
            -86_400,
            -1,
            0,
            1,
            1_364_342_400,
            1_400_000_123,
            MAX_FOUR_DIGIT_UNIX,
        ] {
            let t = Timestamp::from_unix(secs);
            let s = t.to_string();
            assert_eq!(s.len(), 19, "fixed-width format violated by {s:?}");
            let back: Timestamp = s.parse().unwrap();
            assert_eq!(back, t, "round trip failed for {s}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any representable second displays as exactly 19 characters and
        /// parses back to the same instant.
        #[test]
        fn display_and_parse_round_trip_everywhere(
            secs in MIN_FOUR_DIGIT_UNIX..MAX_FOUR_DIGIT_UNIX + 1,
        ) {
            let t = Timestamp::from_unix(secs);
            let shown = t.to_string();
            proptest::prop_assert_eq!(shown.len(), 19);
            let back: Timestamp = shown.parse().unwrap();
            proptest::prop_assert_eq!(back, t);
        }

        /// Round trips survive adversarial clock skew, and the textual path
        /// agrees with the `to_ymd_hms`/`from_ymd_hms` field path.
        #[test]
        fn skewed_timestamps_round_trip(
            base in MIN_FOUR_DIGIT_UNIX + 500_000..MAX_FOUR_DIGIT_UNIX - 500_000,
            skew in -400_000i64..400_000,
        ) {
            let t = Timestamp::from_unix(base) + SimDuration::from_secs(skew);
            let back: Timestamp = t.to_string().parse().unwrap();
            proptest::prop_assert_eq!(back, t);
            let (y, mo, d, h, mi, s) = t.to_ymd_hms();
            proptest::prop_assert_eq!(Timestamp::from_ymd_hms(y, mo, d, h, mi, s), t);
        }
    }

    #[test]
    fn parse_bytes_agrees_with_from_str() {
        // Canonical, loose-but-accepted, and rejected forms all agree.
        for s in [
            "2013-03-28 12:30:00",
            "0001-01-01 00:00:00",
            "9999-12-31 23:59:59",
            "+2013-3-28 1:2:3",
            "02013-03-28 12:30:00",
            "2013-003-28 12:30:00",
            "2013-13-28 12:30:00",
            "2013-03-28 24:00:00",
            "2013-03-28 12:30:0",
            "2013-03-28 12:30:000",
            "2013-03-28T12:30:00",
            "2013-03-28",
            "",
            "garbage here 1234567",
        ] {
            let via_str = s.parse::<Timestamp>().ok();
            let via_bytes = Timestamp::parse_bytes(s.as_bytes());
            assert_eq!(via_bytes, via_str, "disagreement on {s:?}");
        }
        // Invalid UTF-8 is rejected, never a panic.
        assert_eq!(Timestamp::parse_bytes(b"2013-03-28 12:30:\xFF\xFE"), None);
    }

    #[test]
    fn lazy_timestamp_defers_canonical_decode() {
        let lazy = LazyTimestamp::validate(b"2013-03-28 12:30:05").unwrap();
        assert!(matches!(lazy, LazyTimestamp::Fields { .. }));
        assert_eq!(
            lazy.decode(),
            Timestamp::from_ymd_hms(2013, 3, 28, 12, 30, 5)
        );
        let eager = LazyTimestamp::validate(b"+2013-3-28 1:2:3").unwrap();
        assert!(matches!(eager, LazyTimestamp::Decoded(_)));
        assert_eq!(
            eager.decode(),
            Timestamp::from_ymd_hms(2013, 3, 28, 1, 2, 3)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The byte parser is extensionally equal to the str parser on
        /// arbitrary input, printable or not.
        #[test]
        fn parse_bytes_matches_from_str_on_arbitrary_input(s in "\\PC{0,30}") {
            proptest::prop_assert_eq!(
                Timestamp::parse_bytes(s.as_bytes()),
                s.parse::<Timestamp>().ok()
            );
        }

        /// Every representable second's display form takes the lazy fast
        /// path and decodes to the same instant.
        #[test]
        fn canonical_display_takes_fast_path(
            secs in MIN_FOUR_DIGIT_UNIX..MAX_FOUR_DIGIT_UNIX + 1,
        ) {
            let t = Timestamp::from_unix(secs);
            let shown = t.to_string();
            let lazy = LazyTimestamp::validate(shown.as_bytes()).unwrap();
            proptest::prop_assert!(matches!(lazy, LazyTimestamp::Fields { .. }));
            proptest::prop_assert_eq!(lazy.decode(), t);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("2013-03-27".parse::<Timestamp>().is_err());
        assert!("2013/03/27 00:00:00".parse::<Timestamp>().is_err());
        assert!("2013-13-27 00:00:00".parse::<Timestamp>().is_err());
        assert!("2013-03-27 25:00:00".parse::<Timestamp>().is_err());
        assert!("2013-03-27 00:00:00:00".parse::<Timestamp>().is_err());
        assert!("garbage".parse::<Timestamp>().is_err());
    }

    #[test]
    fn production_day_counts_from_epoch() {
        let t =
            Timestamp::PRODUCTION_EPOCH + SimDuration::from_days(517) + SimDuration::from_hours(23);
        assert_eq!(t.production_day(), 517);
        let before = Timestamp::PRODUCTION_EPOCH - SimDuration::from_secs(1);
        assert_eq!(before.production_day(), -1);
    }

    #[test]
    fn duration_arithmetic_and_display() {
        let d = SimDuration::from_hours(2) + SimDuration::from_mins(3) + SimDuration::from_secs(4);
        assert_eq!(d.to_string(), "02:03:04");
        assert_eq!((SimDuration::ZERO - d).to_string(), "-02:03:04");
        assert!((SimDuration::ZERO - d).is_negative());
        assert_eq!((SimDuration::ZERO - d).abs(), d);
    }

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_hours_f64(1.5).as_secs(), 5_400);
        assert!((SimDuration::from_secs(5_400).as_hours_f64() - 1.5).abs() < 1e-12);
        assert!((SimDuration::from_days(2).as_days_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timestamp_subtraction_gives_duration() {
        let a = Timestamp::from_ymd_hms(2013, 3, 27, 0, 0, 0);
        let b = Timestamp::from_ymd_hms(2013, 3, 28, 6, 0, 0);
        assert_eq!(b - a, SimDuration::from_hours(30));
        assert_eq!(a.abs_diff(b), SimDuration::from_hours(30));
    }

    #[test]
    fn civil_conversion_exhaustive_span() {
        // Round-trip every day across several years including leap years.
        let start = days_from_civil(2012, 1, 1);
        let end = days_from_civil(2016, 12, 31);
        let mut prev = None;
        for z in start..=end {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
            if let Some(p) = prev {
                assert_eq!(z, p + 1);
            }
            prev = Some(z);
        }
    }
}
