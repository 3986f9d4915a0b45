/**
 * @file
 * Logging and error-reporting helpers in the spirit of gem5's
 * base/logging.hh: panic() for internal invariant violations, fatal()
 * for user/configuration errors, warn()/inform() for status messages.
 */

#ifndef CISA_COMMON_LOGGING_HH
#define CISA_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace cisa
{

/** Severity of a log message. */
enum class LogLevel { Debug, Info, Warn, Error };

/**
 * Minimum level that is actually printed. Defaults to Info; tests
 * lower it to silence warnings, verbose tools raise visibility.
 */
void setLogLevel(LogLevel lvl);

/** Status message with no connotation of incorrect behaviour. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Something may be modelled imperfectly; results still usable. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Unrecoverable condition that is the user's fault (bad configuration,
 * invalid argument). Prints and exits with status 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Unrecoverable condition that should never happen regardless of user
 * input, i.e., an internal bug. Prints and aborts.
 */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...) __attribute__((format(printf, 3, 4)));

#define panic(...) ::cisa::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** panic() unless the condition holds. */
#define panic_if(cond, ...)                                             \
    do {                                                                \
        if (cond)                                                       \
            panic(__VA_ARGS__);                                         \
    } while (0)

/** Printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, va_list ap);

} // namespace cisa

#endif // CISA_COMMON_LOGGING_HH
