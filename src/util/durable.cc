#include "util/durable.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hh"

namespace cpe {

void
fsyncPath(const std::string &path, bool directory)
{
    int fd = ::open(path.c_str(),
                    directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
    if (fd < 0)
        throw IoError("cannot open '" + path +
                      "' for fsync: " + std::strerror(errno));
    int rc = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    if (rc != 0)
        throw IoError("fsync failed on '" + path +
                      "': " + std::strerror(saved));
}

} // namespace cpe
