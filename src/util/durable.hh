/**
 * @file
 * Durable-storage helpers shared by the on-disk stores (the serve
 * tier's ResultStore and the TraceCache spill directory).
 */

#ifndef CPE_UTIL_DURABLE_HH
#define CPE_UTIL_DURABLE_HH

#include <string>

namespace cpe {

/**
 * Flush @p path (a file or, with @p directory, the directory entry
 * table) to stable storage.  Throws IoError, so callers treat an
 * unsyncable entry exactly like an unwritable one.
 */
void fsyncPath(const std::string &path, bool directory);

} // namespace cpe

#endif // CPE_UTIL_DURABLE_HH
